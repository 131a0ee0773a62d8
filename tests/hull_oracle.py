"""Reference hull operations on Fraction points: membership, projection,
extremals and weak independence.

These are the straightforward versions that `tp_member`, `tp_project`,
`tp_extremals` and weak `tp_independence` replaced. Every difference is a
`TropPoint.diff`, every pseudonorm a `tp_pseudonorm`, and every upper-mode
operation negates its data, runs the lower-mode code and negates back. The
extremals and the weak loop rebuild a generator set for each candidate.
The library must return exactly what these return, certificates included;
the tests use them only as an oracle.
"""

from fractions import Fraction

from tropkit import (CertificateError, GroundSpace, TropGeneratorSet, TropPoint, tp_argext,
                     tp_combine, tp_pseudonorm)


def _member_lower(points, gamma):
    """Covering test: gamma is in the lower hull iff the argmin sets of the
    differences generator - gamma jointly cover the ground set."""
    n = gamma.dim
    cover = []
    coeffs = []
    union: set[int] = set()
    for g in points:
        d = g.diff(gamma)
        amin = tp_argext(d, "min")
        cover.append(sorted(amin))
        union |= amin
        # combination coefficient that brings this generator down to gamma
        raw = [gc - hc for gc, hc in zip(g.coords, gamma.coords)]
        coeffs.append(-min(raw))
    ok = len(union) == n
    cert = {
        "cover": cover,
        "coefficients": coeffs,
        "missing": sorted(set(range(n)) - union),
    }
    if ok:
        combo = tp_combine(list(points), coeffs, "lower")
        if combo != gamma:
            raise CertificateError("membership combination failed to reproduce the point",
                                   {"combo": str(combo), "point": str(gamma)})
    return ok, cert


def member(S: TropGeneratorSet, gamma: TropPoint):
    if S.mode == "upper":
        ok, cert = _member_lower([p.negate() for p in S.points], gamma.negate())
        cert["coefficients"] = [-c for c in cert["coefficients"]]
        return ok, cert
    return _member_lower(list(S.points), gamma)


def _project_lower(points, gamma, space):
    """Residuated nearest point of the lower hull, with certificates."""
    if space is None:
        space = GroundSpace.of([f"x{i}" for i in range(gamma.dim)])
    coeffs = []
    shifted = []
    for g in points:
        raw = [gc - hc for gc, hc in zip(g.coords, gamma.coords)]
        c = -min(raw)
        coeffs.append(c)
        shifted.append(tuple(gc + c for gc in g.coords))
    f_star = TropPoint.of(tuple(min(col) for col in zip(*shifted)))
    checks = []
    for i, g in enumerate(points):
        bg = tp_pseudonorm(g.diff(gamma), 1, "lower", space)
        ba = tp_pseudonorm(g.diff(f_star), 1, "lower", space)
        ag = tp_pseudonorm(f_star.diff(gamma), 1, "lower", space)
        witness = tp_argext(g.diff(f_star), "min") & tp_argext(f_star.diff(gamma), "min")
        checks.append({
            "generator": i,
            "b1_total": bg,
            "b1_to_projection": ba,
            "b1_from_projection": ag,
            "witness": sorted(witness),
        })
        if bg != ba + ag:
            raise CertificateError(
                "projection failed the 1-pseudonorm additivity certificate",
                {"generator": i, "total": str(bg), "split": str(ba + ag)})
        if not witness:
            raise CertificateError(
                "projection failed the argmin intersection certificate",
                {"generator": i})
    return f_star, {"coefficients": coeffs, "checks": checks}


def project(S: TropGeneratorSet, gamma: TropPoint, space: GroundSpace | None = None):
    if S.mode == "upper":
        proj, cert = _project_lower([p.negate() for p in S.points], gamma.negate(), space)
        cert["coefficients"] = [-c for c in cert["coefficients"]]
        return proj.negate(), cert
    return _project_lower(list(S.points), gamma, space)


def extremals(S: TropGeneratorSet) -> TropGeneratorSet:
    pts = list(dict.fromkeys(S.points))
    changed = True
    while changed and len(pts) > 1:
        changed = False
        for i, p in enumerate(pts):
            rest = pts[:i] + pts[i + 1:]
            ok, _ = member(TropGeneratorSet.of(rest, S.mode), p)
            if ok:
                pts.pop(i)
                changed = True
                break
    return TropGeneratorSet.of(pts, S.mode)


def weak_independence(S: TropGeneratorSet) -> dict:
    kind = "weak"
    pts = list(dict.fromkeys(S.points))
    for i, p in enumerate(pts):
        if len(pts) == 1:
            break
        rest = pts[:i] + pts[i + 1:]
        ok, cert = member(TropGeneratorSet.of(rest, S.mode), p)
        if ok:
            return {"kind": kind, "status": "dependent",
                    "certificate": {"redundant_index": i, "cover": cert["cover"],
                                    "coefficients": cert["coefficients"]}}
    return {"kind": kind, "status": "independent", "certificate": None}
