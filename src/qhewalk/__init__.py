"""Simulator and analysis toolkit for a homomorphic-encrypted photonic walk.

The protocol hides an m-bit plaintext in photon polarizations: bit 0 rides a
"walker" photon that interferes inside an m-mode interferometer, bit 1 a
perpendicular "dummy" photon that traverses the same device without mixing
with the walkers. Rotating every polarization by a secret key encrypts the
input; because the device acts on paths only, the computation commutes with
the encryption. This package simulates that pipeline classically, quantifies
what an adversary without the key can learn, and recovers device unitaries
from synthetic interference data.

Import the submodules themselves (qhewalk.walk, qhewalk.security, ...):
the package itself loads no numerical code.
"""

__version__ = "0.1.0"
