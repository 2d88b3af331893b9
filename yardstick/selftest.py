"""Self-test of the benchmark's own checks (not of the program).

Usage (from the repository root)::

    python3 yardstick/selftest.py

1. The same seed yields a byte-identical request stream; another seed
   does not.  No request carries a ``timeout``.
2. The reply checker fails exactly one op when one reply is corrupted,
   so ``ok_rate`` drops below 1 (service and paper-series replies).
3. The ledger reports a renamed (missing) wrapped name, and on a small
   traced pass the layer self times add up to the traced op wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import ledger  # noqa: E402
import workloads  # noqa: E402


def check_streams() -> None:
    for workload in workloads.WORKLOADS:
        first = workloads.build_stream(workload, 5, 100)
        again = workloads.build_stream(workload, 5, 100)
        other = workloads.build_stream(workload, 6, 100)
        assert [op.line for op in first.ops] == [op.line for op in again.ops], workload
        assert first.digest == again.digest and first.digest != other.digest, workload
        assert not any("timeout" in op.obj for op in first.ops), workload
    print("ok: same seed, same stream bytes; no request carries a timeout")


def corrupt(op, reply):
    """A wrong version of *reply* (entail flipped, marker fact dropped,
    series bumped)."""
    if isinstance(reply, dict):
        bad = json.loads(json.dumps(reply))
        key = "series" if "series" in bad else "rows"
        bad[key][-1][1] += 1
        return bad
    obj = json.loads(reply)
    if obj.get("instance"):
        # The marker fact is a constant atom, so no homomorphism can
        # stand in for it: dropping it always changes the answer.
        obj["instance"] = [a for a in obj["instance"] if not a.startswith("opmark(")]
    elif obj.get("results"):
        obj["results"][0]["entailed"] = not obj["results"][0]["entailed"]
    else:
        obj["entailed"] = not obj["entailed"]
    return json.dumps(obj).encode()


def check_checker(work: str) -> None:
    for workload in workloads.WORKLOADS:
        stream = workloads.build_stream(workload, 3, 100)
        stream.ops = stream.ops[:12]
        session = harness.Session(stream, os.path.join(work, workload))
        session.setup()
        replies = session.measure(stream.ops).replies
        session.close()
        refs = workloads.References(stream.bases)
        assert harness.check_all(stream, replies, refs) == [], workload
        for index in (0, len(replies) - 1):
            bad = list(replies)
            bad[index] = corrupt(stream.ops[index], bad[index])
            failures = harness.check_all(stream, bad, refs)
            assert len(failures) == 1, (workload, failures)
            ok_rate = (len(bad) - len(failures)) / len(bad)
            assert ok_rate < 1.0
        print(f"ok: {workload}: one corrupted reply fails one op (ok_rate {ok_rate:.3f})")


def check_ledger(work: str) -> None:
    probe = ledger.Ledger()
    saved = list(ledger.TARGETS)
    ledger.TARGETS.append(ledger.Target("repro.chase.engine:ChaseEngine.renamed_away", "chase"))
    try:
        missing = probe.install()
    finally:
        probe.uninstall()
        ledger.TARGETS[:] = saved
    assert missing == ["repro.chase.engine:ChaseEngine.renamed_away"], missing
    print("ok: a renamed wrapped name is reported missing")

    stream = workloads.build_stream("cold-chase", 3, 100)
    stream.ops = stream.ops[:10]
    session = harness.Session(stream, os.path.join(work, "traced"))
    session.setup()
    metrics = session.measure_traced(stream.ops, untraced=session.measure(stream.ops))
    session.close()
    assert metrics is not None, "ledger did not balance"
    print("ok: traced pass balances: layer self times + unattributed = op wall time")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".yardstick-work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".yardstick-work"))
    try:
        check_streams()
        check_checker(work)
        check_ledger(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
