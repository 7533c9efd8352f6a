"""
Autodiff tape and spectral primitives
=====================================

Everything downstream (Fourier layers, aggregation, training) sits on a
small reverse-mode tape over numpy arrays plus a power-of-two FFT.  This demo
pokes both with the checks we trust day to day: a finite-difference
gradient probe, round trips, Parseval, the brute-force DFT, and the tape's
spectral convolution against the FFT.
"""

import numpy as np

from compol import fft
from compol import tensor as T

rng = np.random.default_rng(0)

# --- a tiny composite function, differentiated by the tape -----------------
# f(x, w) = mean(gelu(x @ w) ** 2); gradients come from backward()
tape = T.Tape()
x = tape.leaf(rng.standard_normal((4, 3)))
w = tape.leaf(rng.standard_normal((3, 5)))
y = T.gelu(T.affine(x, w))
loss = T.reduce_mean(T.mul(y, y))
grads = T.backward(tape, loss)
print("loss:", float(loss.data.reshape(-1)[0]))
print("grad shapes:", grads[x].shape, grads[w].shape)

# the same function through the finite-difference helper (it takes tensor
# arguments and rebuilds the graph per probe); reported is the worst
# relative error across every input entry, and where it falls


def f(tx, tw):
    h = T.gelu(T.affine(tx, tw))
    return T.reduce_mean(T.mul(h, h))


err, where = T.finite_diff_report(f, [x.data, w.data])
print("finite-difference relative error:", err, "at (input, flat index, part)", where)

# --- FFT: round trip, Parseval, and the O(N^2) definition ------------------
u = rng.standard_normal(256)
U = fft.fft(u)
print("round trip max |ifft(fft(u)) - u|:", np.abs(fft.ifft(U) - u).max())

# Parseval with the unnormalized-forward convention: sum|u|^2 = sum|U|^2 / N
lhs, rhs = np.sum(np.abs(u) ** 2), np.sum(np.abs(U) ** 2) / len(u)
print("Parseval relative gap:", abs(lhs - rhs) / lhs)

# the blocked transform must agree with the plain definition
n = 64
k, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
dft = np.exp(-2j * np.pi * k * j / n) @ u[:n]
print("vs direct DFT max abs:", np.abs(fft.fft(u[:n]) - dft).max())

# real-input transforms store only the nonnegative frequencies
half = fft.rfft(u)
print("rfft keeps", half.shape[-1], "of", len(u), "modes;",
      "irfft round trip:", np.abs(fft.irfft(half) - u).max())

# non-power-of-two lengths are rejected rather than silently padded
try:
    fft.fft(np.zeros(48))
except fft.UnsupportedLengthError as exc:
    print("length 48 ->", exc)

# --- a Fourier layer's spectral convolution is one tape op -----------------
# spectral_conv keeps the 9 lowest of the 17 real-transform bins of a
# 32-point grid, mixes the channels of each bin with its own complex matrix,
# and zeroes the rest.  Only the retained bins are ever computed; the real
# field v and the complex weights r both get gradients.
tape = T.Tape()
v = tape.leaf(rng.standard_normal((2, 32, 3)))            # [batch, grid, channels]
r = tape.leaf(rng.standard_normal((3, 3, 9)) + 1j * rng.standard_normal((3, 3, 9)))
out = T.spectral_conv(v, r)
mixed = np.einsum("bki,iok->bko", fft.rfft(v.data, (1,))[:, :9], r.data)
want = fft.irfft(np.pad(mixed, ((0, 0), (0, 8), (0, 0))), (1,), 32)
print("spectral conv vs rfft/mix/irfft max abs:", np.abs(out.data - want).max())
energy = T.reduce_sum(T.mul(out, out))
g = T.backward(tape, energy)
print("gradient shapes:", g[v].shape, g[r].shape, g[r].dtype)
