"""Synthesizing origin/destination imbalance and measuring it.

Starting from an origin distribution over street intersections, the
complement distribution peaks exactly where origins are rare. Blending the
true destination distribution toward that complement with a weight gamma
produces families of scenarios from maximally imbalanced (gamma = 0) to the
observed one (gamma = 1); the Hellinger distance to the origin distribution
quantifies each level.
"""

from cvrsim.demand import complement_mass, generate_requests, hellinger, synthesize_destination
from cvrsim.scenario import build_config, desk_document

# The desk scenario's node masses; gamma = 1 keeps the observed destinations.
desk = build_config(desk_document(gamma=1.0))
p_origin, p_dest = desk.origin_mass, desk.destination_mass
p_complement = complement_mass(p_origin)

print("gamma   Hellinger(p_dest_gamma, p_origin)")
for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
    blended = synthesize_destination(p_dest, p_complement, gamma)
    print(f"{gamma:5.2f}   {hellinger(blended, p_origin):.4f}")

profile = [(3600.0, 75.0), (3600.0, 150.0), (3600.0, 75.0)]
requests = generate_requests(profile, p_origin,
                             synthesize_destination(p_dest, p_complement, 0.5),
                             seed=1)
rate_1 = sum(1 for r in requests if r.t0 < 3600)
rate_2 = sum(1 for r in requests if 3600 <= r.t0 < 7200)
rate_3 = sum(1 for r in requests if r.t0 >= 7200)
print(f"\nlow-high-low request stream: {rate_1} + {rate_2} + {rate_3} "
      f"= {len(requests)} requests over 3 h")
