"""Walk through parsing a ball-by-ball file and reading the trajectory.

Uses the tiny bundled fixtures so it runs with no external data. The point
to notice is the ball axis: only legal deliveries advance it, and runs from
a wide or no-ball are credited to the next legal ball.

An innings is held as columns (over, ball_in_over, batter_runs, extras_runs,
an extras-kind code and wicket); ``innings.deliveries`` shows the same data
one row per delivery.
"""

from rainrule import parse_match, trajectory
from rainrule.fixtures import fixture_path

for name in ("tiny_odi.json", "tiny_t20i.json", "tiny_ipl.json", "tiny_log.csv"):
    match = parse_match(fixture_path(name).read_bytes())
    print(f"{name}: {match.match_id}")
    print(f"  format={match.format.value}  date={match.date}  venue={match.venue}")
    print(f"  teams: {match.teams[0]} v {match.teams[1]}")
    for innings in match.innings:
        total = int(innings.batter_runs.sum() + innings.extras_runs.sum())
        wickets = int(innings.wicket.sum())
        print(
            f"  innings {innings.innings_index}: {innings.over.size} deliveries, "
            f"{total}/{wickets}"
        )
    print()

# Now the trajectory of the first tiny ODI innings, ball by ball.
match = parse_match(fixture_path("tiny_odi.json").read_bytes())
innings = match.innings[0]
traj = trajectory(innings, match.format)

print("raw deliveries (over.ball, runs, kind):")
for d in innings.deliveries:
    kind = d.extras_kind.value if d.extras_kind.value != "none" else "legal"
    tag = " W" if d.wicket else ""
    print(f"  {d.over}.{d.ball_in_over}  {d.total_runs} run(s)  {kind}{tag}")

print()
print("legal-ball trajectory (ball, cumulative runs, cumulative wickets):")
for ball, runs, wkts in zip(traj.ball, traj.runs, traj.wickets):
    print(f"  {ball:>3}  {runs:>3}  {wkts}")
print()
print(f"completed legal balls: {traj.completed_balls}, final score {traj.total}")
print("note the wide: its run shows up on the following legal ball, so the")
print("axis stays 1..completed_balls with no gaps")
