"""Simulator and analysis toolkit for a homomorphic-encrypted photonic walk.

The protocol hides an m-bit plaintext in photon polarizations: bit 0 rides a
"walker" photon that interferes inside an m-mode interferometer, bit 1 a
perpendicular "dummy" photon that traverses the same device without mixing
with the walkers. Rotating every polarization by a secret key encrypts the
input; because the device acts on paths only, the computation commutes with
the encryption. This package simulates that pipeline classically, quantifies
what an adversary without the key can learn, and recovers device unitaries
from synthetic interference data.

The public names load their module on first use (PEP 562), so importing the
package, or only the command line, loads no numerical code.
"""
from importlib import import_module

__version__ = "0.1.0"

# public name -> defining submodule
_EXPORTS = {
    "hermitian_eig": "numerics", "permanent": "numerics", "permanent_naive": "numerics",
    "unitarize": "numerics",
    "KeyEnsemble": "polarization", "PolarizationKey": "polarization", "encrypt": "polarization",
    "linear_ensemble": "polarization", "poincare_ensemble": "polarization",
    "sample_haar_key": "polarization",
    "GaugeFixedUnitary": "reconstruct", "MeasurementNoise": "reconstruct",
    "MeasurementSet": "reconstruct", "gauge_fix": "reconstruct",
    "reconstruct_unitary": "reconstruct", "synthesize_measurements": "reconstruct",
    "attack_asymptote": "security", "attack_success": "security",
    "encrypted_density": "security", "holevo": "security", "simulate_attack": "security",
    "trace_distance": "security", "von_neumann_entropy": "security",
    "NoiseModel": "walk", "bhattacharyya_fidelity": "walk", "output_distribution": "walk",
    "protocol_distribution": "walk", "run_protocol": "walk",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
