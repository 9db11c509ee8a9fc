#!/usr/bin/env python3
"""Independent high-precision evaluation of the golden constants frozen in tests/.

Deliberately avoids importing edgesplit: every value is recomputed here from
first principles with mpmath so the test constants have a provenance that is
separate from the code under test. Re-run and diff when a golden value needs
to change.
"""

import mpmath as mp

mp.mp.dps = 40

# Radio / compute constants used by the reference experiment configuration.
P = mp.mpf("0.1")          # device transmit power, W
SIGMA2 = mp.mpf("1e-10")   # noise power, W
W = mp.mpf("2e6")          # uplink bandwidth, Hz
F_LOCAL = mp.mpf("1e8")    # device CPU, cycles/s
F_EDGE = mp.mpf("1e10")    # edge CPU, cycles/s
KAPPA = mp.mpf("1e-26")
BETA_T = mp.mpf("0.5")
BETA_E = mp.mpf("0.5")
A_D = mp.mpf("4.11")
CARRIER = mp.mpf("915e6")
PATHLOSS_EXP = 3

LIGHTSPEED = mp.mpf("3e8")


def mean_snr(distance, power=P, exponent=PATHLOSS_EXP):
    return (power / SIGMA2) * A_D * (LIGHTSPEED / (4 * mp.pi * CARRIER * distance)) ** exponent


def autoencoder_layers():
    neurons = [784, 128, 64, 32, 10, 32, 64, 128, 784]
    lam = mp.mpf(8)
    alpha = mp.mpf(100)
    layers = []
    for i in range(1, len(neurons)):
        x_prev, x_cur = neurons[i - 1], neurons[i]
        layers.append(
            {
                "bits": 8 * lam * x_prev,
                "cycles": alpha * x_prev * x_cur,
            }
        )
    return layers, 8 * lam * neurons[-1]


def omega(n, layers):
    local = sum(l["cycles"] for l in layers[: n - 1])
    edge = sum(l["cycles"] for l in layers[n - 1 :])
    return BETA_T * (local / F_LOCAL + edge / F_EDGE) + BETA_E * KAPPA * local * F_LOCAL**2


FLOOR_RATIO = mp.mpf("1e-3")   # SNR floor of the truncated law, relative to its mean
MIN_TAIL_MASS = mp.mpf("1e-3")  # pairs with less mass above t are not frozen


def inv_rate_tail(distance, t):
    """E[1/R; gamma >= t] on the reference law at `distance`; see inv_rate_tail_at_mean."""
    return inv_rate_tail_at_mean(mean_snr(distance), t)


def inv_rate_tail_at_mean(mean, t):
    """E[1/R; gamma >= t] under the exponential SNR law truncated at its floor.

    Returns (value, tail mass). The density is exp(-(s - floor)/mean)/mean
    on [floor, inf); the integral is split at multiples of the mean, where the
    exponential decays, and checked at a second working precision.
    """
    floor = mean * FLOOR_RATIO
    lo = max(t, floor)

    def integrand(s):
        return mp.exp(-(s - floor) / mean) / (mean * W * mp.log(1 + s, 2))

    points = [lo] + [lo + k * mean for k in (mp.mpf("0.01"), mp.mpf("0.1"), 1, 4, 16, 64)] + [mp.inf]
    value = mp.quad(integrand, points)
    with mp.workdps(mp.mp.dps + 20):
        check = mp.quad(integrand, points, maxdegree=10)
    if abs(value - check) > mp.mpf(10) ** (-32) * abs(value):
        raise RuntimeError(f"E[1/R] at d={distance}, t={t} is not stable to 32 digits")
    return value, mp.exp(-(lo - floor) / mean)


def main():
    print("== uplink rate ==")
    print("rate(gamma=0.5, W=2e6) =", mp.nstr(mp.mpf("2e6") * mp.log(mp.mpf("1.5"), 2), 17))

    print("== mean SNR from path loss ==")
    g50 = mean_snr(50)
    print("mean_snr(d=50, P=0.1, PL=3) =", mp.nstr(g50, 17))

    print("== downlink reference rate (free-space, BS power 1 W, PL=2, d=50) ==")
    gd = mean_snr(50, power=mp.mpf(1), exponent=2)
    print("downlink mean SNR =", mp.nstr(gd, 17))
    print("downlink rate     =", mp.nstr(W * mp.log(1 + gd, 2), 17))

    layers, exit_bits = autoencoder_layers()
    print("== autoencoder cost constants ==")
    print("I_1 bits =", layers[0]["bits"], " L_1 cycles =", layers[0]["cycles"])
    print("exit bits =", exit_bits)
    print("omega(1) =", mp.nstr(omega(1, layers), 17))
    print("omega(2) =", mp.nstr(omega(2, layers), 17))
    print("omega(9) =", mp.nstr(omega(9, layers), 17))

    # Weighted energy-time cost of offloading at stage 1 with SNR 1.
    eta1 = omega(1, layers) + (BETA_T + BETA_E * P) * layers[0]["bits"] / (W * mp.log(2, 2))
    print("eta_1(gamma=1) =", mp.nstr(eta1, 17))

    # Equal-width MLP amortized download cost: 3 layers, X=128, mu=8 B, K=50.
    rd = W * mp.log(1 + gd, 2)
    psi3 = 3 * 8 * mp.mpf(8) * 129 * 128 / (rd * 50)
    print("psi(M=3), X=128 equal MLP, K=50, reference downlink =", mp.nstr(psi3, 17))

    print("== E[1/R; gamma >= t], truncated law, floor 1e-3 x mean, W = 2e6 ==")
    print(f"(pairs with tail mass below {mp.nstr(MIN_TAIL_MASS, 3)} are skipped)")
    for distance in (25, 50, 100):
        floor = mean_snr(distance) * FLOOR_RATIO
        for label, t in (("0", mp.mpf(0)), ("3*floor", 3 * floor),
                         ("0.1", mp.mpf("0.1")), ("1.0", mp.mpf(1))):
            value, mass = inv_rate_tail(distance, t)
            if mass < MIN_TAIL_MASS:
                print(f"d={distance} t={label}: skipped, tail mass {mp.nstr(mass, 3)}")
                continue
            print(f"d={distance} t={label}: {mp.nstr(value, 30, min_fixed=0, max_fixed=0)}"
                  f"  (tail mass {mp.nstr(mass, 6)})")

    print("== the same at small mean SNR, where 1 + gamma rounds in float64 ==")
    for mean in (mp.mpf("1e-7"), mp.mpf("1e-11")):
        for label, t in (("0", mp.mpf(0)), ("3*floor", 3 * mean * FLOOR_RATIO), ("mean", mean)):
            value, _ = inv_rate_tail_at_mean(mean, t)
            print(f"mean={mp.nstr(mean, 3)} t={label}: {mp.nstr(value, 30, min_fixed=0, max_fixed=0)}")


if __name__ == "__main__":
    main()
