"""Tiled multi-area networks for the powerflow-grid224 workload.

The bundled 14-bus case is copied `copies` times. Copy 0 keeps the only
slack bus; in every other copy bus 14 becomes a generator with about
0.38 p.u. scheduled output, which roughly covers that area's deficit.
Neighbouring copies are joined by two tie lines (14-14 and 9-9), and every
load is scaled by an independent factor in [0.9, 1.1] drawn from the seed.
The program only ever sees the case text that serialize_case produces.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ropf.data import load_case
from ropf.netmodel import Branch, NetworkCase, serialize_case

AREA_SLACK = 14
TIE_BUSES = (14, 9)
TIE_R, TIE_X, TIE_B = 0.02, 0.08, 0.02
AREA_GEN_P = 0.38
LOAD_SPREAD = 0.10


def tiled_case(copies: int, seed: int) -> NetworkCase:
    """A `copies`-area network whose loads are perturbed from `seed`."""
    base = load_case()
    rng = random.Random(seed)
    stride = max(b.id for b in base.buses)
    template = next(g for g in base.generators if g.bus == 2)

    def bus_id(copy: int, bus: int) -> int:
        return copy * stride + bus

    buses, branches, gens, comps, loads = [], [], [], [], []
    for c in range(copies):
        for b in base.buses:
            kind = b.kind
            if b.id == AREA_SLACK and c > 0:
                kind = "generator"
            buses.append(replace(b, id=bus_id(c, b.id), kind=kind))
        branches += [
            replace(br, from_bus=bus_id(c, br.from_bus), to_bus=bus_id(c, br.to_bus))
            for br in base.branches
        ]
        gens += [replace(g, bus=bus_id(c, g.bus)) for g in base.generators]
        if c > 0:
            gens.append(replace(template, bus=bus_id(c, AREA_SLACK), p_output=AREA_GEN_P))
        comps += [replace(k, bus=bus_id(c, k.bus)) for k in base.compensators]
        for ld in base.loads:
            scale = 1.0 + LOAD_SPREAD * (2.0 * rng.random() - 1.0)
            loads.append(replace(ld, bus=bus_id(c, ld.bus), p=ld.p * scale, q=ld.q * scale))
        if c > 0:
            branches += [
                Branch(bus_id(c - 1, t), bus_id(c, t), TIE_R, TIE_X, TIE_B) for t in TIE_BUSES
            ]
    return NetworkCase(
        base_mva=base.base_mva,
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        compensators=tuple(comps),
        loads=tuple(loads),
    )


def scenario_texts(copies: int, seed: int, count: int) -> list[str]:
    """`count` case texts, each with its own load draw derived from `seed`."""
    return [serialize_case(tiled_case(copies, seed * 1000 + k)) for k in range(count)]

