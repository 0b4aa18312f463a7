"""Bloch-vector curve of the equilibrium preparation class.

Sweeping the field on the system spin at fixed temperature traces out the
family of preparable reduced states.  Only the z-component of the system
Bloch vector responds:

    S1z(beta*Fz)  for  beta*g in {0.5, 1, 1.5}  at  beta*e = 1.

The curve is strictly monotone, so every value in (-1, 1) is reachable and
the field is recoverable from the state: the preparable reduced states form
a convex (one-parameter) set.  Stronger coupling to the environment spin
stiffens the response: the slope at zero field drops with beta*g.

Writes bloch_curves.csv next to this script; add --plot for a PNG if
matplotlib is available.
"""

import pathlib
import sys

import spinprep as sp
from spinprep.model import SZ

HERE = pathlib.Path(__file__).resolve().parent
COUPLINGS = (0.5, 1.0, 1.5)


def main(argv):
    curves = {beta_g: sp.figure_sweep(sp.ModelParams(1.0, 1.0, beta_g), -5.0, 5.0, 201) for beta_g in COUPLINGS}
    csv_path = HERE / "bloch_curves.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("beta_g,beta_Fz,S1z\n")
        for beta_g, points in curves.items():
            for p in points:
                fh.write(f"{beta_g:.17g},{p.Fz:.17g},{p.S1z:.17g}\n")
    print(f"wrote {csv_path} ({sum(map(len, curves.values()))} points)")

    print("\nzero-field slope d S1z / d(beta Fz):")
    for beta_g in COUPLINGS:
        model = sp.ModelParams(1.0, 1.0, beta_g)
        h = 1e-5
        slope = (
            sp.equilibrium_observables(model, h).S1z
            - sp.equilibrium_observables(model, -h).S1z
        ) / (2 * h)
        chi = sp.susceptibility(model, [SZ])[0, 0]
        print(f"  beta*g = {beta_g}: slope = {slope:.6f} (susceptibility {chi:.6f})")

    for points in curves.values():
        s1z = [p.S1z for p in points]
        assert all(b > a for a, b in zip(s1z, s1z[1:]))
    print("\nall three curves are strictly monotone: the field inversion is well defined")

    if "--plot" in argv:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available; skipping the plot", file=sys.stderr)
            return
        fig, ax = plt.subplots(figsize=(6, 4))
        for beta_g, points in curves.items():
            ax.plot([p.Fz for p in points], [p.S1z for p in points], label=f"$\\beta g = {beta_g}$")
        ax.set_xlabel(r"$\beta F_z$")
        ax.set_ylabel(r"$S_{1z}$")
        ax.legend()
        ax.grid(alpha=0.3)
        fig.tight_layout()
        png = HERE / "bloch_curves.png"
        fig.savefig(png, dpi=150)
        print(f"wrote {png}")


if __name__ == "__main__":
    main(sys.argv[1:])
