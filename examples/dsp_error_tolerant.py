"""Error-tolerant DSP with the bare SCSA speculative adder (thesis Ch. 3-4).

The thesis motivates SCSA for "applications where errors are tolerable,
such as ... signal processing": when a speculative addition goes wrong the
error magnitude is tiny (section 3.3), so a filter built on SCSA barely
moves while the adder is ~30% faster and smaller than an exact one.

This example runs a moving-average filter over a noisy sine wave twice —
once with exact additions, once accumulating through a gate-level SCSA —
and reports error rate, worst relative error, and output SNR.

Run with::

    python examples/dsp_error_tolerant.py
"""

import math

import numpy as np

from repro import build_scsa_adder, measure_design, simulate_batch


WIDTH = 64
WINDOW = 10  # aggressive enough that errors are visible over ~14k adds
TAPS = 8
SAMPLES = 2048


def synthesize_signal() -> np.ndarray:
    """Noisy sine, scaled into unsigned ~29-bit samples."""
    rng = np.random.default_rng(42)
    t = np.arange(SAMPLES)
    clean = np.sin(2 * math.pi * t / 128.0)
    noisy = clean + 0.05 * rng.standard_normal(SAMPLES)
    # Scale so the accumulator tops out near 2^31: plenty of headroom
    # between the data MSB and the highest window boundary, which is what
    # keeps speculative error magnitudes tiny (thesis section 3.3).
    return ((noisy + 2.0) * (1 << 28)).astype(np.int64)


def moving_average_exact(signal: np.ndarray) -> np.ndarray:
    out = np.convolve(signal, np.ones(TAPS, dtype=np.int64), mode="valid")
    return out // TAPS


def moving_average_speculative(signal: np.ndarray, adder) -> np.ndarray:
    """Accumulate each TAPS-window through the gate-level SCSA netlist."""
    acc = [int(v) for v in signal[: SAMPLES - TAPS + 1]]
    # accumulate tap j into every window position, batched per tap
    for j in range(1, TAPS):
        addend = [int(v) for v in signal[j: j + len(acc)]]
        sums = simulate_batch(adder, {"a": acc, "b": addend})["sum"]
        acc = [s & ((1 << WIDTH) - 1) for s in sums]
    return np.array(acc, dtype=np.int64) // TAPS


def main() -> None:
    adder = build_scsa_adder(WIDTH, WINDOW)
    signal = synthesize_signal()

    exact = moving_average_exact(signal)
    speculative = moving_average_speculative(signal, adder)

    wrong = np.count_nonzero(exact != speculative)
    total_adds = (TAPS - 1) * len(exact)
    rel_err = np.abs(exact - speculative) / np.maximum(exact, 1)
    noise_power = float(np.mean((exact - speculative) ** 2))
    signal_power = float(np.mean(exact.astype(float) ** 2))
    snr_db = (
        10 * math.log10(signal_power / noise_power) if noise_power else math.inf
    )

    print(f"SCSA({WIDTH}, k={WINDOW}) moving-average filter, {TAPS} taps")
    print(f"  additions executed:          {total_adds}")
    print(f"  filter outputs affected:     {wrong} / {len(exact)}")
    print(f"  worst relative output error: {rel_err.max():.2e}")
    print(f"  output SNR vs exact filter:  {snr_db:.1f} dB")

    ks = measure_design("kogge_stone", WIDTH)
    sc = measure_design("scsa1", WIDTH, WINDOW)
    print(f"  exact adder (Kogge-Stone):   delay {ks.delay:.3f}, area {ks.area:.0f}")
    print(f"  speculative adder (SCSA):    delay {sc.delay:.3f}, area {sc.area:.0f}")
    print(f"  -> {100 * (1 - sc.delay / ks.delay):.0f}% faster, "
          f"{100 * (1 - sc.area / ks.area):.0f}% smaller, "
          f"for {snr_db:.0f} dB of accuracy")

    assert snr_db > 55, "speculative filter should be audibly transparent"


if __name__ == "__main__":
    main()
