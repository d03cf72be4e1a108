"""Linear rates on two lines through the origin.

For subspaces the asymptotic contraction factors are classical: squared
cosine of the Friedrichs angle for alternating projections, plain cosine for
the halved double-reflection scheme.  The harness fits both from iteration
traces and the modified-reflection method for comparison.
"""

from aamr.bench import SweepConfig, rate_profile

print(f"{'theta':>6} {'method':<22} {'estimated':>10} {'expected':>10}")
config = SweepConfig(rate_thetas=(0.1, 0.3, 0.6, 1.0, 1.4), seed=1)
_, records, _ = rate_profile(config)
for rec in records:
    expected = "-" if rec.expected_rate is None else f"{rec.expected_rate:10.6f}"
    print(f"{rec.theta:6.2f} {rec.label:<22} {rec.estimated_rate:10.6f} {expected:>10}")

print("\nthe smaller the angle, the closer both classical factors sit to 1;")
print("a strong modified reflection keeps contracting fast there, which is")
print("the regime where it wins the iteration-count benchmarks.  (nan means")
print("the trace hit floating-point noise in under 20 samples: contraction")
print("too steep to fit a slope.)")
