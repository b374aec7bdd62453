"""Tests for the structural-coverage feedback (repro.fuzz.coverage)."""

import numpy as np

from repro.engine.elab import build_design
from repro.fuzz.coverage import mux_toggle_keys, window_pattern_keys, witnessed
from repro.model.behavioral import pack_ints, window_profile
from repro.netlist.compile import compile_circuit, mux_select_points


def test_window_pattern_keys_identify_boundary_combos():
    width, window = 16, 4
    # a=b=0: every boundary sees G=0, P=0, cin=0 -> combo 0.
    profile = window_profile(
        pack_ints([0], width), pack_ints([0], width), width, window, "lsb"
    )
    keys = window_pattern_keys(profile, "lsb")
    assert keys  # one key per boundary
    assert all(key[0] == "w" and key[1] == "lsb" for key in keys)
    assert all(key[3] == 0 for key in keys)
    assert set(keys.values()) == {0}  # the only sample is the witness

    # all-ones operands: every window generates -> G=1 and cin=1.
    ones = (1 << width) - 1
    profile = window_profile(
        pack_ints([ones], width), pack_ints([ones], width), width, window, "lsb"
    )
    combos = {key[3] for key in window_pattern_keys(profile, "lsb")}
    assert combos == {0b101}  # G=1, P=0, cin=1


def test_window_pattern_witness_is_first_sample():
    width, window = 16, 4
    ones = (1 << width) - 1
    a = pack_ints([0, ones, 0], width)
    b = pack_ints([0, ones, 0], width)
    profile = window_profile(a, b, width, window, "lsb")
    keys = window_pattern_keys(profile, "lsb")
    # combo 0 first appears at sample 0; combo 0b101 at sample 1.
    for key, index in keys.items():
        assert index == (0 if key[3] == 0 else 1)


def test_mux_select_points_and_toggles():
    circuit = build_design("scsa2", 16, 4)
    points = mux_select_points(circuit)
    assert points  # carry-select architectures are mux-structured
    gate_indices = {p[0] for p in points}
    assert all(circuit.gates[i].kind == "MUX2" for i in gate_indices)
    assert all(level >= 0 for _, _, level in points)

    sim = compile_circuit(circuit)
    pairs = [(0, 0), ((1 << 16) - 1, (1 << 16) - 1)]
    inputs = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
    V, ones, num_vectors = sim.pack_inputs_limbs(inputs)
    rows = sim.eval_limbs(V, ones)
    keys = mux_toggle_keys(points, rows, ones, sim.vector_plan().perm)
    assert keys
    observed = {key[2] for key in keys}
    assert observed == {0, 1}  # the two extreme vectors toggle selects
    assert all(0 <= index < num_vectors for index in keys.values())


def test_witnessed_orders_and_maps_to_pairs():
    keys = {("m", 3, 1): 1, ("m", 1, 0): 0}
    pairs = [(0xA, 0xB), (0xC, 0xD)]
    out = witnessed(keys, pairs)
    assert out == [(("m", 1, 0), 0xA, 0xB), (("m", 3, 1), 0xC, 0xD)]


def test_mux_toggle_witness_is_lowest_vector_across_limbs():
    """Witnesses are the lowest vector index holding each select value,
    also when it sits past the first 64-vector limb."""
    circuit = build_design("scsa2", 16, 4)
    points = mux_select_points(circuit)
    sim = compile_circuit(circuit)
    ones_pair, zeros_pair = ((1 << 16) - 1, (1 << 16) - 1), (0, 0)
    pairs = [zeros_pair] * 70 + [ones_pair] * 3 + [zeros_pair] * 60
    inputs = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
    V, ones, num_vectors = sim.pack_inputs_limbs(inputs)
    rows = sim.eval_limbs(V, ones)
    keys = mux_toggle_keys(points, rows, ones, sim.vector_plan().perm)
    masks = {}
    for _, net, _ in points:
        row = rows[sim.vector_plan().perm[net]]
        masks[net] = sum(int(word) << (64 * k) for k, word in enumerate(row))
    for gate_index, net, _ in points:
        mask = masks[net]
        clear = ~mask & ((1 << num_vectors) - 1)
        for value, bits in ((1, mask), (0, clear)):
            key = ("m", gate_index, value)
            if bits:
                assert keys[key] == (bits & -bits).bit_length() - 1
            else:
                assert key not in keys
    assert 70 in keys.values()  # a witness in the second limb
