"""Correctness checks made apart from bqcontrol.

Nothing here imports bqcontrol.  Propagators come from scipy.linalg.expm,
relations are re-checked in mpmath, gap collisions by sort-and-sweep,
connectedness by graph search, Lie rank by the SVD of stacked bracket
vectors, couplings by scipy.integrate.quad, and running coupling integrals by
composite Gauss-Legendre quadrature.  Every check raises CheckError on a
mismatch.
"""

import json
import math

import mpmath
import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.special


class CheckError(AssertionError):
    pass


def require(cond, msg):
    if not cond:
        raise CheckError(msg)


def generators(lam, W):
    """(A, B) = (diag(i lam), -i W) from the raw spectral data."""
    lam = np.asarray(lam, dtype=float)
    return np.diag(1j * lam), -1j * np.asarray(W, dtype=float)


def propagator(A, B, pieces):
    """Product of reparametrized-frame piece exponentials expm(t (u A + B))."""
    U = np.eye(A.shape[0], dtype=complex)
    for t, u in pieces:
        U = scipy.linalg.expm(t * (u * A + B)) @ U
    return U


# ---------------------------------------------------------------------------
# steering
# ---------------------------------------------------------------------------


def check_state_steer(lam, W, x0, x1, tol, delta, res):
    c = res.control
    require(c.frame == "reparametrized", f"frame {c.frame}")
    require(all(u > delta for _, u in c.pieces), "piece value at or below delta")
    A, B = generators(lam, W)
    x = propagator(A, B, c.pieces) @ x0
    infid = 1.0 - abs(np.vdot(x1, x)) ** 2
    require(abs(infid - res.infidelity) <= 1e-9,
            f"reported infidelity {res.infidelity:.3e}, recomputed {infid:.3e}")
    if res.converged:
        require(infid <= tol + 1e-12, f"converged with infidelity {infid:.3e}")


def check_unitary_steer(lam, W, G0, G1, tol, res):
    """Reported distance equals the phase-quotient or the fixed-phase distance.

    The search reports the quotient distance; after its phase-polish stage it
    reports the distance at the returned theta instead.
    """
    c = res.control
    require(c.frame == "reparametrized", f"frame {c.frame}")
    A, B = generators(lam, W)
    U = propagator(A, B, c.pieces) @ G0
    n = U.shape[0]
    z = np.trace(U.conj().T @ G1)
    quotient = math.sqrt(max(0.0, 2.0 * n - 2.0 * abs(z)))
    phased = float(np.linalg.norm(np.exp(1j * res.theta) * U - G1))
    require(min(abs(res.distance - quotient), abs(res.distance - phased)) <= 1e-8,
            f"reported distance {res.distance:.6e}, recomputed quotient "
            f"{quotient:.6e} / phased {phased:.6e}")
    if res.converged:
        require(phased <= tol + 1e-9,
                f"converged but |e^(i theta) U - target| = {phased:.3e}")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def check_relation(values, verdict, Q, tol):
    """An integer relation witness holds at 40 digits: |q.g| <= tol |g| |q|."""
    if verdict["status"] != "relation_found":
        require(verdict["relation"] is None, "relation without a found status")
        return
    q = [int(v) for v in verdict["relation"]]
    require(len(q) == len(values), "relation length")
    require(any(q) and max(abs(v) for v in q) <= Q, f"relation {q} out of bounds")
    with mpmath.workdps(40):
        g = [mpmath.mpf(float(v)) for v in values]
        lhs = abs(mpmath.fsum(qi * gi for qi, gi in zip(q, g)))
        gnorm = mpmath.sqrt(mpmath.fsum(gi * gi for gi in g))
        qnorm = mpmath.sqrt(sum(v * v for v in q))
        require(lhs <= mpmath.mpf(tol) * gnorm * qnorm,
                f"relation {q} residual {mpmath.nstr(lhs, 5)} exceeds bound")


def colliding_pairs(lam, tol):
    """Pairs of index pairs whose |gaps| agree within tol * max(1, spread)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[0]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    g = np.array([abs(lam[j] - lam[k]) for j, k in pairs])
    thr = tol * max(1.0, float(lam.max() - lam.min()))
    order = np.argsort(g, kind="stable")
    out = set()
    for a in range(len(order)):
        b = a + 1
        while b < len(order) and g[order[b]] - g[order[a]] <= thr:
            i, j = sorted((order[a], order[b]))
            out.add((pairs[i], pairs[j]))
            b += 1
    return out


def components(W, threshold):
    """Connected components of |W| > threshold by breadth-first search."""
    n = W.shape[0]
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        comp, frontier = [s], [s]
        while frontier:
            v = frontier.pop()
            for w in range(n):
                if w != v and not seen[w] and abs(W[v, w]) > threshold:
                    seen[w] = True
                    comp.append(w)
                    frontier.append(w)
        comps.append(tuple(sorted(comp)))
    return comps


def lie_rank_svd(A, B, rtol=1e-9):
    """Real dimension of Lie{A, B} from the SVD of stacked bracket vectors.

    The span S is grown as S + [A, S] + [B, S] until its dimension stops
    changing; S is kept as an orthonormal basis so bracket norms stay bounded.
    """
    m = A.size

    def vec(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])

    basis = [A, B]
    rank = 0
    while True:
        new = [G @ X - X @ G for X in basis for G in (A, B)]
        stack = np.array([vec(M) for M in basis + new])
        _, s, vt = np.linalg.svd(stack, full_matrices=False)
        r = int(np.sum(s > rtol * s[0]))
        if r == rank:
            return rank
        rank = r
        basis = [(v[:m] + 1j * v[m:]).reshape(A.shape) for v in vt[:r]]


def check_certify(doc, lam, W, n, Q, tol, threshold=1e-12):
    """Check a certification report (JSON form) against recomputed facts."""
    lam = np.asarray(lam, dtype=float)[:n]
    W = np.asarray(W, dtype=float)[:n, :n]
    gaps = np.diff(lam)
    nonres = doc["nonresonant_gaps"]
    require(np.array_equal(nonres["gaps"], gaps), "gap vector")
    check_relation(gaps, nonres, Q, tol)
    check_relation(np.diag(W), doc["perturbation"]["relation"], Q, tol)

    pw = doc["pairwise_gaps_distinct"]
    reported = {tuple(tuple(p) for p in v) for v in pw["violations"]}
    mine = colliding_pairs(lam, tol)
    require(reported == mine, f"gap collisions: reported {len(reported)}, "
            f"recomputed {len(mine)}")
    require(pw["ok"] == (not mine), "pairwise ok flag")

    comps = components(W, threshold)
    conn = doc["connected"]
    require(conn["connected"] == (len(comps) == 1), "connectedness verdict")
    if len(comps) > 1:
        smallest = min(comps, key=lambda c: (len(c), c[0]))
        require(tuple(conn["invariant_set"]) == smallest,
                f"invariant set {conn['invariant_set']} vs {smallest}")

    lie = doc["lie_rank"]
    require(0 < lie["rank"] <= n * n, "Lie rank range")
    if n <= 5:
        A, B = generators(lam, W)
        r = lie_rank_svd(A, B)
        require(lie["rank"] == r, f"Lie rank {lie['rank']} vs SVD rank {r}")

    witnessed = len(comps) > 1 or bool(mine) or nonres["status"] == "relation_found"
    if doc["overall"] == "refuted":
        require(witnessed, "refuted without a witness")
    else:
        require(not witnessed, f"{doc['overall']} despite a witness")
    if doc["overall"] == "certified":
        require(lie["contains_su"], "certified without the rank condition")


def hermite_function(k, x):
    norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
    return scipy.special.eval_hermite(k, x) * math.exp(-0.5 * x * x) / norm


def oscillator_coupling(a, b, c, j, k):
    def f(x):
        return (hermite_function(j, x) * hermite_function(k, x)
                * math.exp(a * x * x + b * x + c))
    val, _ = scipy.integrate.quad(f, -np.inf, np.inf, epsabs=1e-13,
                                  epsrel=1e-12, limit=200)
    return val


def box_coupling(l, alpha, ti, tj):
    out = 1.0
    for L, al, k, h in zip(l, alpha, ti, tj):
        def f(x):
            return (math.exp(al * x) * math.sin(k * math.pi * x / L)
                    * math.sin(h * math.pi * x / L))
        val, _ = scipy.integrate.quad(f, 0.0, L, epsabs=1e-14, epsrel=1e-12,
                                      limit=200)
        out *= 2.0 / L * val
    return out


def check_constructive(W, j, k, gen):
    """Recompute the filter residual and compare E, F with the ideal rotations."""
    n = W.shape[0]
    b = -1j * W[j, k]
    ideal = np.zeros((n, n), dtype=complex)
    ideal[j, k] = b
    ideal[k, j] = -np.conj(b)
    resid = float(np.max(np.abs(gen.N - ideal)))
    require(abs(resid - gen.residual) <= 1e-12 * max(1.0, resid),
            f"generator residual {gen.residual:.3e} vs {resid:.3e}")
    E = np.zeros((n, n), dtype=complex)
    E[j, k], E[k, j] = 1.0, -1.0
    F = np.zeros((n, n), dtype=complex)
    F[j, k] = F[k, j] = 1j
    slack = 1e-9 + 10.0 * resid / abs(b)
    require(np.max(np.abs(gen.E - E)) <= slack, f"E for pair ({j}, {k})")
    require(np.max(np.abs(gen.F - F)) <= slack, f"F for pair ({j}, {k})")


# ---------------------------------------------------------------------------
# simulation, CLI artifacts, lift
# ---------------------------------------------------------------------------


def _reject_constant(token):
    raise CheckError(f"non-finite JSON constant {token}")


def strict_json(path):
    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=_reject_constant)


def check_trajectory_csv(path, rows_expected, n, psi_ref):
    """Row count and final state of a state-trajectory CSV."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = fh.read().splitlines()
    require(len(header) == 1 + 3 * n, f"CSV has {len(header)} columns")
    require(len(rows) == rows_expected,
            f"CSV has {len(rows)} rows, expected {rows_expected}")
    last = np.array([float(v) for v in rows[-1].split(",")])
    psi = last[1:1 + 2 * n:2] + 1j * last[2:2 + 2 * n:2]
    err = float(np.max(np.abs(psi - psi_ref)))
    require(err <= 1e-10, f"final state off by {err:.3e}")
    require(abs(np.linalg.norm(psi) - 1.0) <= 1e-10, "final norm drift")


def steering_bound(W, psi0, psi1, eps, delta):
    cols = np.linalg.norm(np.asarray(W)[:, :len(psi0)], axis=0)
    best = 0.0
    for k in range(len(psi0)):
        num = abs(abs(psi0[k]) - abs(psi1[k])) - eps
        if num > 0.0:
            if cols[k] == 0.0:
                return math.inf
            best = max(best, num / cols[k])
    return best / delta


def circ_dist(a, b):
    return np.abs(np.mod(a - b + math.pi, 2.0 * math.pi) - math.pi)


def check_plateaus(lam, n, N, control, phase_tol):
    """Recompute every plateau residual from the spectrum."""
    lam = np.asarray(lam, dtype=float)[:N]
    freqs = lam[0] - lam[1:]
    flip = np.concatenate([np.zeros(n - 1), math.pi * np.ones(N - n)])
    plateaus = control.meta["plateaus"]
    require(2 * len(plateaus) == control.npieces, "plateau count")
    for p in plateaus:
        offsets = np.zeros(N - 1) if p["type"] == "w" else flip
        targets = np.mod(freqs * p["target"] + offsets, 2.0 * math.pi)
        r = float(np.max(circ_dist(freqs * p["time"], targets)))
        require(r <= phase_tol, f"plateau residual {r:.3e} > {phase_tol}")
        require(abs(r - p["residual"]) <= 1e-9, "reported plateau residual")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def offblock_sup(lam, W, control, n, times):
    """max over `times` of the off-block running coupling integral.

    The integrand W[j][k] exp(i (lam_k - lam_j) v(s)) is integrated piece by
    piece with 64-point Gauss-Legendre on sub-intervals sweeping at most 120
    radians, so the quadrature resolves the fast ramps of a lifted control.
    """
    lam = np.asarray(lam, dtype=float)
    N = len(lam)
    mask = np.zeros((N, N), dtype=bool)
    mask[:n, n:] = True
    mask[n:, :n] = True
    Om = (lam[None, :] - lam[:, None])[mask]
    Bm = (-1j * np.asarray(W, dtype=float))[mask]
    wmax = float(np.max(np.abs(Om)))
    dur = np.asarray(control.durations)
    val = np.asarray(control.values)
    starts = np.concatenate([[0.0], np.cumsum(dur)])
    vstarts = np.concatenate([[0.0], np.cumsum(dur * val)])

    def integral(p, dt):
        k = int(math.ceil(wmax * abs(val[p]) * dt / 120.0)) or 1
        h = dt / k
        acc = np.zeros(len(Om), dtype=complex)
        for lo in range(0, k, 2000):  # batches bound the memory used
            left = h * np.arange(lo, min(k, lo + 2000))
            s = (left[:, None] + 0.5 * h * (_GL_NODES + 1.0)).ravel()
            w = np.tile(0.5 * h * _GL_WEIGHTS, len(left))
            acc += w @ np.exp(1j * np.outer(vstarts[p] + val[p] * s, Om))
        return acc * Bm

    full = [integral(p, dur[p]) for p in range(len(dur))]
    worst = 0.0
    for t in times:
        p = min(int(np.searchsorted(starts, t, side="right")) - 1, len(dur) - 1)
        acc = sum(full[:p], np.zeros(len(Om), dtype=complex))
        acc = acc + integral(p, t - starts[p])
        worst = max(worst, float(np.max(np.abs(acc))))
    return worst
