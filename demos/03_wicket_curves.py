"""Average-score curves conditioned on wickets down, and their cubic fits.

The curve g_w(t) is the mean cumulative score at legal ball t over all
innings that had exactly w wickets down at t. The fit is constrained through
the origin (no constant term): nobody has scored before the first ball.
"""

from rainrule import MatchFormat, fit_poly, poly_eval, wicket_curves
from rainrule.fixtures import demo_corpus

corpus = demo_corpus()
FMT = MatchFormat.ODI

print(f"{FMT.value} innings 1, cubic fits per wickets-down state\n")
print(f"{'w':>2}{'balls':>7}{'a':>14}{'b':>12}{'c':>10}{'rss/ball':>12}")

curves = wicket_curves(corpus, FMT, 1, min_support=5)  # every state, one corpus pass
fits = {}
for w in range(4):
    curve = curves[w]
    fit = fit_poly(curve, degree=3)
    fits[w] = (curve, fit)
    print(
        f"{w:>2}{len(curve):>7}{fit.a:>14.3e}{fit.b:>12.5f}{fit.c:>10.4f}"
        f"{fit.rss / len(curve):>12.3f}"
    )

print()
print("every fitted curve passes through the origin exactly:")
for w, (curve, fit) in fits.items():
    print(f"  w={w}: f(0) = {poly_eval(fit, 0.0)!r}")

print()
print("fitted mean score at each 10-over mark (w=0 curve):")
curve, fit = fits[0]
for overs in (10, 20, 30, 40, 50):
    t = overs * 6
    print(f"  {overs:>2} overs (ball {t:>3}): {poly_eval(fit, float(t)):7.1f}")

print()
print("fitted score at ball 180 per wickets-down state:")
t = 180.0
for w in range(4):
    _, fit = fits[w]
    print(f"  w={w}: {poly_eval(fit, t):6.1f}")
print()
print("the synthetic generator scores at a flat rate whatever the wickets,")
print("so these barely separate; on a real corpus the states order cleanly")
print("and the state picked at the stoppage is what the target engine uses")
