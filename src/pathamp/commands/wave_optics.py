"""diffraction: the forward-diffraction amplitude of a spherical wave."""

from pathamp.core_num import complex_out, wavenumber


def _diffraction(args):
    from pathamp import wave_optics
    lam, alpha, alpha1 = (args.quantity(f) for f in ("--wavelength", "--alpha", "--alpha1"))
    kappa = wavenumber(lam)
    amp = wave_optics.diffraction_amplitude(kappa, alpha, alpha1)
    return ({"wavelength_m": lam, "alpha_rad": alpha, "alpha1_rad": alpha1},
            {"kappa_per_m": kappa, "amplitude_per_m": complex_out(amp)},
            {"amplitude_per_m": "computed"}, [])


COMMANDS = {
    "diffraction": (_diffraction, (
        ("--wavelength", "length", {"required": True}),
        ("--alpha", "angle", {"default": "0rad"}),
        ("--alpha1", "angle", {"default": "0rad"}))),
}
