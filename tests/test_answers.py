"""The digests of ``tools/answers.py`` on a stub workload."""

import hashlib
import importlib.util
from pathlib import Path

ANSWERS = Path(__file__).resolve().parents[1] / "tools" / "answers.py"


def _module():
    spec = importlib.util.spec_from_file_location("answers", ANSWERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Stub:
    """Rounds of two inputs ``(seed, k)``, one checked input per seed, and
    outputs ``k * seed`` (``changed`` maps an input to another output; an
    exception as output is raised)."""

    name = "stub"

    def __init__(self, changed=None):
        self.changed = changed or {}
        self.loads = 0

    def op_count(self, seconds):
        return int(seconds)

    def load(self, ms):
        self.loads += 1
        return {"load": self.loads}

    def rounds(self, state, seed):
        k = 0
        while True:
            yield [(seed, k), (seed, k + 1)]
            k += 2

    def checked_inputs(self, state, seed, timed_ops):
        return [(seed, "checked", timed_ops)]

    def prepare(self, ms, state, inp):
        return state["load"]

    def run(self, ms, state, inp, ctx):
        out = self.changed.get(inp, inp[1] * inp[0] if inp[1] != "checked" else ctx)
        if isinstance(out, Exception):
            raise out
        return out


def _sha(answers) -> str:
    return hashlib.sha256("".join(f"{a}\n" for a in answers).encode()).hexdigest()


def test_digest_hashes_every_answer_in_order_on_fresh_state():
    """Three timed inputs and the checked one per seed, each seed on a fresh
    load; the same stub gives the same line twice."""
    stub = Stub()
    line = _module().digest(None, stub, (2, 5), 3)
    assert stub.loads == 2
    assert line == {"workload": "stub", "inputs": 8,
                    "sha256": _sha(["0", "2", "4", "1", "0", "5", "10", "2"])}
    assert _module().digest(None, Stub(), (2, 5), 3) == line


def test_digest_changes_with_one_answer_and_hashes_an_exception():
    answers = _module()
    base = answers.digest(None, Stub(), (2, 5), 3)["sha256"]
    assert answers.digest(None, Stub({(5, 2): 10.0}), (2, 5), 3)["sha256"] != base
    raised = answers.digest(None, Stub({(5, 1): ValueError("no answer")}), (2, 5), 3)
    assert raised["sha256"] == _sha(["0", "2", "4", "1", "0", "ValueError: no answer", "10", "2"])
