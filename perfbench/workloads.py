"""The three workloads: seeded inputs, one kind and size of op each, and checks.

A workload builds a small pool of inputs from its seed before timing starts
and cycles through it; `round` is the number of input kinds it alternates,
so a run attempts whole rounds. `prepare(k)` builds op k's argument outside
the timed region and `run(arg)` is the timed op. Library calls go through
the `stftuniq` module attributes at call time, so the tracer's wrappers see
them.

`check(outputs)` takes (pool index, output) pairs and returns the worst
relative error against a reference the benchmark computed itself (see
reference.py) and the list of failed expectations; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref
import stftuniq

POOL = 8


def _rel(got: float, want: float, scale: float) -> float:
    return abs(got - want) / scale


class CliCold:
    """One fresh `python -m stftuniq discriminate --n 12` process per op.

    Closed-form Gaussian spec pairs; even pairs are phase-rotated copies,
    odd pairs are widened and shifted. With a tracer, each op runs the
    traced stand-in cli_child.py instead and its spans are adopted.
    """

    round = 2
    points = 12
    timeout_s = 120

    def __init__(self, seed: int, env: dict, tracer=None, spans_path=None):
        rng = random.Random(f"cli-cold/{seed}")
        self.pool = []
        for i in range(POOL):
            f = dict(width=rng.uniform(0.7, 1.3), center=rng.uniform(-0.5, 0.5),
                     amp=rng.uniform(0.5, 1.5), phase=rng.uniform(0.0, 2.0 * math.pi))
            if i % 2 == 0:
                h = dict(f, phase=f["phase"] + rng.uniform(0.5, 2.0 * math.pi - 0.5))
            else:
                h = dict(width=f["width"] * rng.uniform(1.2, 1.5),
                         center=f["center"] + rng.choice((-1, 1)) * rng.uniform(0.2, 0.6),
                         amp=rng.uniform(0.5, 1.5), phase=rng.uniform(0.0, 2.0 * math.pi))
            self.pool.append({"f": f, "h": h, "rotated": i % 2 == 0})
        self.env = env
        self.tracer = tracer
        self.spans_path = spans_path

    @staticmethod
    def _spec(p: dict) -> str:
        return "gaussian(" + ",".join(f"{k}={p[k]!r}" for k in ("width", "center", "amp", "phase")) + ")"

    def prepare(self, k: int) -> list[str]:
        pair = self.pool[k]
        argv = ["discriminate", "--f", self._spec(pair["f"]), "--h", self._spec(pair["h"]),
                "--n", str(self.points)]
        if self.tracer is None:
            return [sys.executable, "-m", "stftuniq"] + argv
        child = Path(__file__).with_name("cli_child.py")
        return [sys.executable, str(child), "--spans", str(self.spans_path)] + argv

    def run(self, cmd: list[str]) -> str:
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=self.timeout_s)
        if proc.returncode != 0:
            raise RuntimeError(f"process exited {proc.returncode}: {proc.stderr.strip()}")
        if self.tracer is not None:
            self.tracer.adopt(self.spans_path)
        return proc.stdout

    def check(self, outputs: list) -> tuple[float, list[str]]:
        """Verdicts, alpha = -phi mod 2 pi, and max_dev against the closed-form STFT."""
        a = math.pi
        tau1_max, tau2_max = ref.step_bounds(2.0, a)
        worst = 0.0
        bad = []
        for idx, text in outputs:
            pair = self.pool[idx]
            doc = json.loads(text)
            res, meta = doc["result"], doc["meta"]
            want = "EquivalentUpToPhase" if pair["rotated"] else "Distinct"
            if res["verdict"] != want or res["points"] != 4 * self.points:
                bad.append(f"pair {idx}: verdict {res['verdict']} with {res['points']} points, want {want}")
            for key, bound in (("tau1", tau1_max), ("tau2", tau2_max)):
                if _rel(meta[key], 0.9 * bound, bound) > 1e-12:
                    bad.append(f"pair {idx}: {key} {meta[key]!r} is not 0.9 of the bound {bound!r}")
            pts = ref.quadrant_points(2.0, meta["tau1"], meta["tau2"], self.points)
            vf, vh = (np.abs(ref.gaussian_stft([(p["amp"] * cmath.exp(1j * p["phase"]),
                                                 p["center"], p["width"])], a, pts))
                      for p in (pair["f"], pair["h"]))
            scale = max(float(vf.max()), float(vh.max()))
            worst = max(worst, _rel(res["max_dev"], float(np.max(np.abs(vf - vh))), scale))
            if pair["rotated"]:
                phi = pair["h"]["phase"] - pair["f"]["phase"]
                worst = max(worst, ref.phase_distance(res["alpha"], -phi) / (2.0 * math.pi),
                            res["residual"])
        return worst, bad


class OffGauss:
    """spectrogram_on_set for the m = 1.5, a = 2 window on a four-point set, 256 nodes."""

    round = 2
    m, a, nodes = 1.5, 2.0, 256

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 15])
        bounds = stftuniq.max_tau_bounds(self.m, self.a)
        self.points = stftuniq.generate_sampling_set(self.m, 0.9 * bounds.tau1_max,
                                                     0.9 * bounds.tau2_max, 1, a=self.a)
        self.window = stftuniq.make_generalized_gaussian(self.a, self.m)
        self.quad = stftuniq.QuadratureConfig(nodes=self.nodes)
        self.pool = []
        for i in range(POOL):
            amp = rng.uniform(0.5, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            width, center = rng.uniform(0.7, 1.3), rng.uniform(-0.5, 0.5)
            if i % 2 == 0:
                sig = stftuniq.gaussian_signal(width, center, amp)
                fhat = ref.gaussian_fhat(amp, center, width)
            else:
                f0, rate = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0)
                sig = stftuniq.chirp_signal(width, center, amp, f0, rate)
                fhat = ref.chirp_fhat(amp, center, width, f0, rate)
            self.pool.append({"signal": sig, "fhat": fhat})

    def prepare(self, k: int) -> dict:
        return self.pool[k]

    def run(self, item: dict):
        return stftuniq.spectrogram_on_set(item["signal"], self.window, self.points, self.quad)

    def check(self, outputs: list) -> tuple[float, list[str]]:
        """Magnitudes against the Fourier-side integral, relative to each op's largest magnitude."""
        want = {}
        worst = 0.0
        for i, samples in outputs:
            if i not in want:
                fhat = self.pool[i]["fhat"]
                want[i] = np.abs([ref.fourier_side_stft(fhat, self.a, self.m, x, w)
                                  for x, w in self.points.points])
            worst = max(worst, float(np.max(np.abs(samples.magnitudes - want[i]))) / float(want[i].max()))
        return worst, []


class Counterexample:
    """Growth fit, ring log|F| and two exact zeros of the product over lambda_k = c sqrt(k), k <= 10^7.

    c stays in [1.5, 2): above the non-uniqueness threshold 1 for rho = 2,
    b = pi, and where the r^2 fit over radii 4..16 keeps the growth
    coefficient below b (it passes b near c = 1.35, since the genus-one
    product grows like |u| log|u|).
    """

    round = 1
    rho, b, terms, radii, n_theta = 2.0, math.pi, 10**7, (4.0, 8.0, 16.0), 64

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 5])
        # half-step angles keep z^2 off the positive axis, where the zeros sit
        ring = np.exp(1j * (np.arange(64) + 0.5) * (2.0 * math.pi / 64))
        self.pool = []
        for _ in range(POOL):
            radius = rng.uniform(3.0, 8.0)
            self.pool.append({"ring": radius * ring, "c": rng.uniform(1.5, 2.0),
                              "zeros": (int(rng.integers(0, self.terms)), int(rng.integers(0, self.terms)))})

    def prepare(self, k: int):
        """The 80 MB sequence, built outside the timed region."""
        item = self.pool[k]
        lam = np.arange(1, self.terms + 1, dtype=float)
        np.sqrt(lam, out=lam)
        lam *= item["c"]
        return lam, item

    def run(self, arg):
        lam, item = arg
        coeff, samples = stftuniq.counterexample_growth_coefficient(lam, self.rho, self.radii,
                                                                   n_theta=self.n_theta, b=self.b)
        ring = stftuniq.counterexample_log_magnitudes(lam, self.rho, item["ring"])
        i, j = item["zeros"]
        at_zeros = (stftuniq.counterexample_eval(lam, self.rho, lam[i]),
                    stftuniq.counterexample_eval(lam, self.rho, -lam[j]))
        return coeff, samples, ring, at_zeros

    def check(self, outputs: list) -> tuple[float, list[str]]:
        """Exact vanishing, coefficient below b, and log|F| against the Gamma closed form."""
        circle = np.exp(1j * np.arange(self.n_theta) * (2.0 * math.pi / self.n_theta))
        want = {}
        worst = 0.0
        bad = []
        for i, (coeff, samples, ring, at_zeros) in outputs:
            item = self.pool[i]
            if i not in want:
                log_max = [float(np.max(ref.counterexample_log_modulus(r * circle, item["c"], self.terms)))
                           for r in self.radii]
                want[i] = (ref.growth_fit(log_max, self.radii, self.rho), log_max,
                           ref.counterexample_log_modulus(item["ring"], item["c"], self.terms))
            w_coeff, w_log_max, w_ring = want[i]
            if any(v != 0 for v in at_zeros):
                bad.append(f"item {i}: F at sampled zeros is {at_zeros}, not exactly 0")
            if not coeff < self.b:
                bad.append(f"item {i}: growth coefficient {coeff} is not below b = {self.b}")
            worst = max(worst, _rel(coeff, w_coeff, abs(w_coeff)),
                        max(_rel(v, w, max(abs(w), 1.0)) for (_, v), w in zip(samples, w_log_max)),
                        float(np.max(np.abs(ring - w_ring) / np.maximum(np.abs(w_ring), 1.0))))
        return worst, bad


IN_PROCESS = {"offgauss": OffGauss, "counterexample": Counterexample}
