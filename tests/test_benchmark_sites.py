"""The benchmark's traced run (``perfbench/run.py --trace 1``) swaps named
lookup sites of the library for spans. Only that run looks the names up,
so this test enters and leaves every swap: a site renamed or deleted in
the library fails here."""

from perfbench.layers import trace_patches
from perfbench.tracing import Tracer


def test_every_trace_site_swaps_and_restores():
    patches = trace_patches(Tracer())
    sites = [(owner, attr) for owner, attr, _ in patches.targets]
    originals = [getattr(owner, attr) for owner, attr in sites]
    with patches:
        swapped = [getattr(owner, attr) for owner, attr in sites]
    assert all(s is not o for s, o in zip(swapped, originals))
    assert all(getattr(owner, attr) is o
               for (owner, attr), o in zip(sites, originals))
