"""The benchmark tracer (``perfbench/layers.py``) wraps library names that
it looks up in their owner's ``__dict__``; deleting or renaming one of
them in ``src/`` fails here, not only in the benchmark's self-test."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_and_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    entries = (layers.SPANS + layers.COUNTED_LEAVES + layers.TIMED_LEAVES
               + layers.WINDOW)
    owners = list(layers._MODULES) + [
        owner for _, owner, _ in entries if isinstance(owner, type)]

    def snapshot():
        return {(owner, attr): value for owner in owners
                for attr, value in vars(owner).items()}

    before = snapshot()
    tracer = layers.Tracer()
    try:
        tracer.install()
        for name, owner, attr in entries:
            assert owner.__dict__[attr] is not before[(owner, attr)], name
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
