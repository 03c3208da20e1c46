"""Simulator and analysis toolkit for a homomorphic-encrypted photonic walk.

The protocol hides an m-bit plaintext in photon polarizations: bit 0 rides a
"walker" photon that interferes inside an m-mode interferometer, bit 1 a
perpendicular "dummy" photon that traverses the same device without mixing
with the walkers. Rotating every polarization by a secret key encrypts the
input; because the device acts on paths only, the computation commutes with
the encryption. This package simulates that pipeline classically, quantifies
what an adversary without the key can learn, and recovers device unitaries
from synthetic interference data.
"""
from .numerics import hermitian_eig, permanent, permanent_naive, unitarize
from .polarization import (KeyEnsemble, PolarizationKey, encrypt, linear_ensemble,
                           poincare_ensemble, sample_haar_key)
from .reconstruct import (GaugeFixedUnitary, MeasurementNoise, MeasurementSet,
                          gauge_fix, reconstruct_unitary, synthesize_measurements)
from .security import (attack_asymptote, attack_success, encrypted_density, holevo,
                       simulate_attack, trace_distance, von_neumann_entropy)
from .walk import (NoiseModel, bhattacharyya_fidelity, output_distribution,
                   protocol_distribution, run_protocol)

__version__ = "0.1.0"

__all__ = [
    "GaugeFixedUnitary",
    "KeyEnsemble",
    "MeasurementNoise",
    "MeasurementSet",
    "NoiseModel",
    "PolarizationKey",
    "attack_asymptote",
    "attack_success",
    "bhattacharyya_fidelity",
    "encrypt",
    "encrypted_density",
    "gauge_fix",
    "hermitian_eig",
    "holevo",
    "linear_ensemble",
    "output_distribution",
    "permanent",
    "permanent_naive",
    "poincare_ensemble",
    "protocol_distribution",
    "reconstruct_unitary",
    "run_protocol",
    "sample_haar_key",
    "simulate_attack",
    "synthesize_measurements",
    "trace_distance",
    "unitarize",
    "von_neumann_entropy",
]
