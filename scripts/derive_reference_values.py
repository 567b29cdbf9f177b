#!/usr/bin/env python3
"""Symbolic derivation of the closed-form oracle values used in tests.

Derives, independently of the package machinery:

* the torus fields under the signed-distance extension (full Laplacian
  of M, its Laplace-Beltrami part, the split residual), and their
  relation to the published closed form;
* the spheroid lap M values at the poles and equator under both the
  signed-distance and the gradient-normalized extension.

Run it to reproduce the constants frozen in tests/closed_forms.py
(``spheroid_section`` also returns its exact values, which
tests/test_closed_forms.py compares with ``SPHEROID_LAP``):

    python scripts/derive_reference_values.py
"""

import sympy as sp


def torus_section():
    rho, z, R, r, th = sp.symbols("rho z R r theta", positive=True, real=True)
    s = sp.sqrt((rho - R) ** 2 + z ** 2)
    f = s - r  # exact signed distance to the torus

    def lap_axi(g):
        # 3D Laplacian of an axisymmetric scalar g(rho, z)
        return sp.diff(g, rho, 2) + sp.diff(g, rho) / rho + sp.diff(g, z, 2)

    m_field = -lap_axi(f)  # M = -n_{i,i} with n = grad f
    lap_m = sp.simplify(lap_axi(m_field))
    on_surface = {rho: R + r * sp.sin(th), z: r * sp.cos(th)}
    lap_m_surf = sp.simplify(lap_m.subs(on_surface))

    # intrinsic surface Laplacian of M(theta) from the induced metric
    h1, h2 = 1 / r, sp.sin(th) / (R + r * sp.sin(th))
    m_theta = -(h1 + h2)
    sqrtg = r * (R + r * sp.sin(th))
    lap_lb = sp.simplify(
        sp.diff((R + r * sp.sin(th)) / r * sp.diff(m_theta, th), th) / sqrtg
    )
    published = R * (r + R * sp.sin(th)) / (2 * r ** 2 * (R + r * sp.sin(th)) ** 3)
    split = sp.simplify(lap_lb - (h1 + h2) * (h1 - h2) ** 2)

    print("== torus (signed-distance extension) ==")
    print("lapM(theta)          =", sp.factor(lap_m_surf))
    print("lapLB(theta)         =", sp.factor(lap_lb))
    print("published - lapLB/2  =", sp.simplify(published - lap_lb / 2))
    print("lapM - [lapLB - (h1+h2)(h1-h2)^2] =", sp.simplify(lap_m_surf - split))
    for name, sub in (("outer sin=+1", sp.pi / 2), ("inner sin=-1", -sp.pi / 2)):
        vals = {R: 2, r: 1, th: sub}
        print(f"  R=2 r=1 {name}: lapM={lap_m_surf.subs(vals)}, "
              f"lapLB={lap_lb.subs(vals)}, published={published.subs(vals)}")


def spheroid_section():
    a, b, t = sp.symbols("a b t", positive=True, real=True)
    w = sp.sqrt(a ** 2 * sp.sin(t) ** 2 + b ** 2 * sp.cos(t) ** 2)
    km, kp = a * b / w ** 3, b / (a * w)  # principal curvature profiles
    m_theta = -(km + kp)
    sqrtg = w * a * sp.cos(t)
    lap_lb = sp.simplify(sp.diff((a * sp.cos(t) / w) * sp.diff(m_theta, t), t) / sqrtg)
    lap_sd = sp.simplify(lap_lb - (km + kp) * (km - kp) ** 2)

    rho, z = sp.symbols("rho z", positive=True, real=True)
    f = rho ** 2 / a ** 2 + z ** 2 / b ** 2 - 1
    grad = sp.Matrix([sp.diff(f, rho), sp.diff(f, z)])
    norm = sp.sqrt(grad[0] ** 2 + grad[1] ** 2)
    n_rho, n_z = grad[0] / norm, grad[1] / norm
    m_gn = -(sp.diff(n_rho, rho) + n_rho / rho + sp.diff(n_z, z))
    lap_gn = sp.diff(m_gn, rho, 2) + sp.diff(m_gn, rho) / rho + sp.diff(m_gn, z, 2)

    def gn_value(av, bv, tv):
        if tv == sp.pi / 2:  # pole sits on the axis; take the limit
            curve = lap_gn.subs({a: av, b: bv,
                                 z: sp.sqrt(bv ** 2 * (1 - rho ** 2 / av ** 2))})
            return sp.simplify(sp.limit(curve, rho, 0, "+"))
        return sp.simplify(lap_gn.subs({a: av, b: bv, rho: av * sp.cos(tv),
                                        z: bv * sp.sin(tv)}))

    print("\n== spheroid lap M at the poles and equator ==")
    values = {}
    for av, bv, label in ((1, 2, "prolate a=1 b=2"), (2, 1, "oblate a=2 b=1")):
        subs = {a: av, b: bv}
        values[(av, bv)] = {
            site: {"lb": lap_lb.subs(subs).subs(t, tv),
                   "sd": lap_sd.subs(subs).subs(t, tv),
                   "gn": gn_value(av, bv, tv)}
            for site, tv in (("pole", sp.pi / 2), ("equator", 0))}
        published = {
            "pole": -(bv ** 2 - av ** 2) * bv / av ** 6,
            "equator": sp.Rational(bv ** 2 - av ** 2) * (bv ** 2 + 3 * av ** 2)
            / (2 * av * bv ** 6)}
        print(f"{label}:")
        for site, v in values[(av, bv)].items():
            print(f"  {site + ':':<9}lb={v['lb']}, sd={v['sd']}, gn={v['gn']}, "
                  f"published={published[site]}")
    return values


if __name__ == "__main__":
    torus_section()
    spheroid_section()
