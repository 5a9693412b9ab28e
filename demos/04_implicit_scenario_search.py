"""Delayed scenario generation touches a tiny slice of the scenario space.

A ring with 17 extra candidate copies per position has 102 candidate edges;
with a budget for two simultaneous disruptions there are 5886 possible
attacks.  The implicit search certifies an optimal design after pricing only
a handful of them.

    python3 demos/04_implicit_scenario_search.py
"""

import dataclasses
import time

from sndp import GeneratorSpec, generate_instance
from sndp.decomposition import count_scenarios, solve_delayed
from sndp.reporting import verify_design

inst = generate_instance(
    GeneratorSpec("replicated", num_nodes=6, replication=18, seed=1,
                  placement_seed=1))
inst = dataclasses.replace(inst, budget=2.0)

count, exact = count_scenarios(inst)
print(f"instance: {len(inst.nodes)} nodes, {len(inst.edges)} edges "
      f"({len(inst.candidate_ids)} candidates)")
print(f"budget-feasible disruption scenarios: {count}{'' if exact else '+'}")

start = time.perf_counter()
sol = solve_delayed(inst)
elapsed = time.perf_counter() - start

print(f"\nsolved in {elapsed:.1f}s: build cost {sol.build_cost:g}, "
      f"worst shed {sol.worst_shed:g}")
print(f"scenarios priced explicitly: {sol.scenarios_evaluated} of {count} "
      f"({100 * sol.scenarios_evaluated / count:.2f}%)")
print(f"phase seconds: master {sol.timings['rmp']:.2f}, "
      f"separation {sol.timings['ndp']:.2f}, recourse {sol.timings['sp']:.2f}")

print("\nper-round log:")
for record in sol.iteration_log:
    print(f"  t={record['t']:2d} master={record['master_objective']:8.3f} "
          f"oracle shed={record['oracle_severity']:6.3f} "
          f"cuts+={record['cuts_added']}")

report = verify_design(inst, sol.design, enumeration_cap=10 ** 5)
print(f"\nindependent verification over {report.attacks_enumerated} attacks: "
      f"worst shed {report.worst_shed:g} -> "
      f"{'pass' if report.passed else 'fail'}")
