"""How the hidden degrees of freedom depend on the visible one.

Within the equilibrium preparation class the reduced state is fixed by S1z
alone.  If the map from reduced states to total states were affine, then the
environment polarization S2z and the correlations Cxx, Cyy, Czz would all be
straight-line functions of S1z.  This demo evaluates those curves and their
least-squares lines:

* beta*g = 0: every curve is exactly straight (residuals at roundoff).
* beta*g > 0: S2z and Cxx bend visibly; a parity argument makes the point
  sharply, since S1z is odd in the field while Cxx is even, an affine
  relation would force Cxx to be constant, which fails whenever g != 0.
* Near S1z = 0 an approximately linear regime survives: narrow-window
  residuals are orders of magnitude below wide-window ones.

Writes linearity_curves.csv; add --plot for a PNG if matplotlib is available.
"""

import pathlib
import sys

import numpy as np

import spinprep as sp

HERE = pathlib.Path(__file__).resolve().parent
COUPLINGS = (0.0, 0.5, 1.0, 1.5)
WIDE = np.linspace(-0.9, 0.9, 41)
NARROW = np.linspace(-0.05, 0.05, 21)


def main(argv):
    reports = {}
    with open(HERE / "linearity_curves.csv", "w", encoding="utf-8") as fh:
        fh.write("beta_g,S1z,S2z,Cxx,Cyy,Czz\n")
        for beta_g in COUPLINGS:
            model = sp.ModelParams(1.0, 1.0, beta_g)
            rep = sp.linearity_scan(model, WIDE)
            reports[beta_g] = rep
            for k, s in enumerate(rep.s1z):
                fh.write(
                    f"{beta_g:.17g},{s:.17g},{rep.curves['S2z'][k]:.17g},"
                    f"{rep.curves['Cxx'][k]:.17g},{rep.curves['Cyy'][k]:.17g},"
                    f"{rep.curves['Czz'][k]:.17g}\n"
                )
    print(f"wrote {HERE / 'linearity_curves.csv'}")

    print("\nworst straight-line residual over |S1z| <= 0.9:")
    for beta_g, rep in reports.items():
        pieces = ", ".join(f"{k} {v.max_residual:.2e}" for k, v in rep.fits.items())
        print(f"  beta*g = {beta_g}: {pieces}")

    print("\nevenness witness (Cxx must be constant if the blow-up were affine):")
    for beta_g in COUPLINGS:
        cxx = [p.Cxx for p in sp.figure_sweep(sp.ModelParams(1.0, 1.0, beta_g), -5.0, 5.0, 101)]
        spread = max(cxx) - min(cxx)
        verdict = "constant" if spread <= 1e-10 else "varies"
        print(f"  beta*g = {beta_g}: Cxx spread {spread:.3e} -> {verdict}")

    model = sp.ModelParams(1.0, 1.0, 1.5)
    narrow = sp.linearity_scan(model, NARROW)
    print("\napproximately linear regime near S1z = 0 (beta*g = 1.5):")
    for name in ("S2z", "Cxx", "Cyy", "Czz"):
        w = reports[1.5].fits[name].max_residual
        n = narrow.fits[name].max_residual
        print(f"  {name}: wide {w:.3e}  narrow {n:.3e}  ratio {w / max(n, 1e-300):.0f}x")

    if "--plot" in argv:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available; skipping the plot", file=sys.stderr)
            return
        fig, axes = plt.subplots(1, 2, figsize=(10, 4))
        for beta_g, rep in reports.items():
            axes[0].plot(rep.s1z, rep.curves["S2z"], label=f"$\\beta g = {beta_g}$")
        axes[0].set_xlabel(r"$S_{1z}$")
        axes[0].set_ylabel(r"$S_{2z}$")
        axes[0].legend()
        rep = reports[1.5]
        for name in ("Cxx", "Cyy", "Czz"):
            axes[1].plot(rep.s1z, rep.curves[name], label=name)
        axes[1].set_xlabel(r"$S_{1z}$")
        axes[1].set_ylabel("correlation")
        axes[1].legend()
        for ax in axes:
            ax.grid(alpha=0.3)
        fig.tight_layout()
        png = HERE / "linearity_curves.png"
        fig.savefig(png, dpi=150)
        print(f"wrote {png}")


if __name__ == "__main__":
    main(sys.argv[1:])
