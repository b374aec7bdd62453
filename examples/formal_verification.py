"""Formal verification of the reliability claims with BDDs.

The thesis argues VLCSA is "error-free" (Ch. 5) from the structure of its
detection and recovery.  This example *proves* the claims with the
built-in equivalence checker (a BDD proof behind a random-vector sweep)
instead of sampling them:

1. the recovery bus of VLCSA 1/2 is formally the exact sum;
2. the speculative bus is formally NOT the exact sum, and the checker
   extracts a concrete, minimized counterexample (which is exactly a
   cross-window carry chain);
3. all conventional adder generators are formally equivalent;
4. the peephole optimizer's rewrites are sound.

Run with::

    python examples/formal_verification.py
"""

from repro import (
    build_kogge_stone_adder,
    build_scsa_adder,
    build_vlcsa1,
    build_vlcsa2,
    optimize,
    simulate,
)
from repro.adders import ADDER_GENERATORS
from repro.netlist.equiv import check_equivalent

WIDTH = 32
WINDOW = 8


def main() -> None:
    ks = build_kogge_stone_adder(WIDTH)

    # 1. Recovery is exact — as a theorem over all 2^64 input pairs.
    for build in (build_vlcsa1, build_vlcsa2):
        design = build(WIDTH, WINDOW)
        result = check_equivalent(design, ks, buses=[("sum_rec", "sum")])
        assert result.equivalent
        print(f"PROVED  {design.name}.sum_rec == exact sum (all 2^{2 * WIDTH} inputs)")

    # 2. Speculation is not exact; extract and check a counterexample.
    scsa = build_scsa_adder(WIDTH, WINDOW)
    result = check_equivalent(scsa, ks)
    assert not result.equivalent
    a = result.counterexample["a"]
    b = result.counterexample["b"]
    spec = simulate(scsa, {"a": a, "b": b})["sum"]
    print(f"PROVED  {scsa.name}.sum != exact sum;")
    print(f"        counterexample a={a:#x} b={b:#x}: speculative {spec:#x}, "
          f"true {a + b:#x}")
    print(f"        (a cross-window carry chain, exactly the thesis' Fig. 3.4 event)")

    # 3. Every conventional generator computes the same function.
    for name, gen in sorted(ADDER_GENERATORS.items()):
        result = check_equivalent(ks, gen(WIDTH))
        assert result.equivalent
        print(f"PROVED  kogge_stone == {name} at {WIDTH} bits")

    # 4. The optimizer is sound on the full VLCSA 2 netlist.
    vlcsa2 = build_vlcsa2(WIDTH, WINDOW)
    optimized, stats = optimize(vlcsa2)
    result = check_equivalent(vlcsa2, optimized)
    assert result.equivalent
    print(f"PROVED  optimize() preserved all {len(vlcsa2.output_buses)} output "
          f"buses of {vlcsa2.name} "
          f"(gate count {stats.gates_before} -> {stats.gates_after}, "
          f"including fanout-repair buffers)")


if __name__ == "__main__":
    main()
