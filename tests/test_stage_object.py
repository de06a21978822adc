"""One melting stage is one frozen ``AdmissiblePoset``.

``admissible_tubings`` builds it once: the tubings with their aligned
masks, dimensions and bad sets, and a read-only position index.  Each
dimension is read off its mask; here it is checked against the tubing's
melted and frozen tubes, on every stage of four hosts.  A facet that a
subdivision carries keeps its label: it never holds the melted tube, so
it is the same admissible tubing at the next stage.
"""

import dataclasses

import pytest

from posetahedra import corpus, geometry

HOSTS = {"w5": corpus.w5(), "h6": corpus.h6(), "cchain3": corpus.circular_chain(3),
         "cclaw3": corpus.circular_claw(3)}
DESK = {**corpus.DESK_POSETS, **corpus.DESK_AFFINE}


def _stages(host, monkeypatch):
    """Every admissible poset the host's realization certifies against."""
    stages = []
    match = geometry.lattice_match
    monkeypatch.setattr(geometry, "lattice_match",
                        lambda Q, adm: stages.append(adm) or match(Q, adm))
    R = geometry.realize(host)
    assert len(stages) == len(R.melt_sequence) + 1
    return stages


@pytest.mark.parametrize("name", HOSTS)
def test_every_stage_is_one_frozen_index(name, monkeypatch):
    host = HOSTS[name]
    for adm in _stages(host, monkeypatch):
        size = adm.system.size
        for i, T in enumerate(adm.elements):
            melted = sum(adm.is_melted(t) for t in T)
            assert adm.dims[i] == size + melted - (len(T) - melted) - 2, T
            assert adm.index[T] == i
        assert len(adm.masks) == len(adm.dims) == len(adm.bads) == len(adm.elements)
        for aligned in (adm.masks, adm.dims, adm.bads):
            assert type(aligned) is tuple
        with pytest.raises(TypeError):
            adm.index[adm.elements[0]] = 0
        for f in dataclasses.fields(adm):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(adm, f.name, getattr(adm, f.name))


@pytest.mark.parametrize("name", DESK)
def test_carried_facets_keep_their_labels(name, monkeypatch):
    """Each facet a stage carries is the lattice facet of its tight set."""
    seen = []
    rebuild = geometry.rebuild_from_lattice

    def spying(dim, vertices, labels, adm, rows, ranks, carried=None):
        below = adm.below(labels)
        for Tf in adm.facets():
            kept = (carried or {}).get(below(adm.index[Tf]))
            if kept is not None:
                seen.append(kept[0].label == Tf)
        return rebuild(dim, vertices, labels, adm, rows, ranks, carried)

    monkeypatch.setattr(geometry, "rebuild_from_lattice", spying)
    R = geometry.realize(DESK[name])
    if R.melt_sequence:
        assert seen and all(seen)
