"""The four benchmark workloads: inputs, query specs and engine set-up.

Every query is written once as an oracle plan spec (the nested-dict
form :func:`repro.verify.oracle.run_oracle` interprets) and compiled
for the engine with :func:`repro.verify.differ.expr_from_spec` under
``auto_shield=False``, so one spec drives both the engine and the
reference oracle.  Inputs are generated in this process from the
benchmark seed; the engine only ever receives the generated elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import DSMS, AuditLog, Observability
from repro.verify.differ import expr_from_spec
from repro.verify.oracle import merge_streams
from repro.workloads.health import (BODY_TEMPERATURE_SCHEMA,
                                    HEART_RATE_SCHEMA, HealthStreamGenerator)
from repro.workloads.synthetic import (SYNTH_SCHEMA, punctuated_stream,
                                       role_names)

#: Offered load of the ``live_health`` open loop, in elements per
#: second: ~15% of the closed-loop push capacity (6.2-6.9k/s) measured
#: on a 2-vCPU Xeon host with Python 3.11.7.  On that shared host the
#: push capacity itself drops to ~2.9k/s in slow spells; at 3200/s
#: (half the capacity) the p99 swung 0.7-14.5 ms between runs, and at
#: 2000/s the median still swung by a third.  At this rate queues stay
#: short even in slow spells.
LIVE_RATE_EPS = 1000.0

#: Patients in ``live_health``; each reading round is one sp + one
#: tuple per patient on each of the two streams.
LIVE_PATIENTS = 50


@dataclass
class Workload:
    """Inputs and queries of one workload at one seed."""

    name: str
    #: Stream id -> (schema, elements), in registration order.
    streams: dict = field(default_factory=dict)
    #: Query name -> ``{"roles": [...], "plan": spec}`` (oracle form).
    queries: dict = field(default_factory=dict)
    #: ``"nl"`` or ``"index"``: join operator the specs compile to.
    join_variant: str = "nl"
    #: Attach ``Observability(audit=AuditLog())`` to the DSMS.
    audited: bool = False
    #: Static plan analysis mode passed to ``register_query``.
    analyze: str = "off"
    #: Drive through ``StreamingSession.push`` instead of ``DSMS.run``.
    live: bool = False
    #: Nominal seconds per timed ``DSMS.run`` repetition, with its
    #: set-ups and checks, at the commit that added the benchmark (2-vCPU
    #: Xeon, Python 3.11.7).  A run makes ``--seconds / rep_s`` timed
    #: repetitions whatever the program's speed.
    rep_s: float = 1.0

    @property
    def elements(self) -> int:
        return sum(len(els) for _, els in self.streams.values())

    def oracle_streams(self) -> dict:
        return {sid: els for sid, (_, els) in self.streams.items()}

    def feed(self) -> list:
        """The ts-ordered merged feed ``[(stream_id, element), ...]``."""
        return merge_streams(self.oracle_streams())

    def build(self) -> DSMS:
        """DSMS construction, stream and query registration (set-up)."""
        observability = (Observability(audit=AuditLog()) if self.audited
                         else None)
        dsms = DSMS(observability=observability)
        for schema, elements in self.streams.values():
            dsms.register_stream(schema, elements)
        for name, query in self.queries.items():
            dsms.register_query(
                name, expr_from_spec(query["plan"], self.join_variant),
                roles=frozenset(query["roles"]), auto_shield=False,
                analyze=self.analyze)
        return dsms

    def setup(self):
        """Everything ``setup_s`` times: returns ``(dsms, session)``.

        ``session`` is the opened ``StreamingSession`` for a live
        workload, else ``None``.
        """
        dsms = self.build()
        return dsms, (dsms.open_session() if self.live else None)


# -- spec helpers ---------------------------------------------------------

def _scan(stream: str) -> dict:
    return {"op": "scan", "stream": stream}


def _shield(spec: dict, roles) -> dict:
    return {"op": "shield", "input": spec, "predicates": [sorted(roles)]}


def _select(spec: dict, attribute: str, op: str, value: float) -> dict:
    return {"op": "select", "input": spec,
            "condition": {"attribute": attribute, "op": op,
                          "value": value}}


def _role_queries(n_queries: int, threshold: float) -> dict:
    """Per-role ``select(x > threshold)`` queries on the synthetic stream.

    The shield sits above the select, where ``auto_shield`` would put
    it; the plan's subexpression cache then shares one select among
    all queries and each query keeps its own shield.
    """
    queries = {}
    for index, role in enumerate(role_names(n_queries, prefix="qr")):
        roles = sorted({role, "q_role"})
        plan = _shield(_select(_scan("synthetic"), "x", ">", threshold),
                       roles)
        queries[f"q{index}"] = {"roles": roles, "plan": plan}
    return queries


def _synthetic(n_tuples: int, tuples_per_sp: int, seed: int) -> dict:
    elements = list(punctuated_stream(
        n_tuples, tuples_per_sp=tuples_per_sp, policy_size=3,
        accessible_fraction=0.6, seed=seed))
    return {"synthetic": (SYNTH_SCHEMA, elements)}


# -- the workloads --------------------------------------------------------

def segment_fanout(seed: int, scale: float) -> Workload:
    """sp:tuple 1/100, 32 per-role queries, observability off."""
    return Workload(
        "segment_fanout",
        streams=_synthetic(max(200, int(60_000 * scale)), 100, seed),
        queries=_role_queries(32, 900.0), rep_s=0.55)


def sp_dense(seed: int, scale: float) -> Workload:
    """sp:tuple 1/1 (Fig 7a's weakest point), 4 queries."""
    return Workload(
        "sp_dense",
        streams=_synthetic(max(50, int(10_000 * scale)), 1, seed),
        queries=_role_queries(4, 100.0), rep_s=1.0)


def audited_segment(seed: int, scale: float) -> Workload:
    """sp:tuple 1/100, 4 queries, with the audit log attached."""
    return Workload(
        "audited_segment",
        streams=_synthetic(max(200, int(25_000 * scale)), 100, seed),
        queries=_role_queries(4, 100.0), audited=True, rep_s=0.9)


def _health_queries() -> dict:
    hr, bt = _scan("HeartRate"), _scan("BodyTemperature")
    return {
        "doctor_scan": {"roles": ["D"], "plan": _shield(hr, ["D"])},
        "er_alert": {"roles": ["E"], "plan": _select(
            _shield(hr, ["E"]), "beats_per_min", ">", 140.0)},
        "er_distinct": {"roles": ["E"], "plan": {
            "op": "dupelim", "window": 200.0,
            "attributes": ["patient_id"], "input": _shield(hr, ["E"])}},
        "nurse_temperature": {"roles": ["ND"], "plan": _select(
            _shield(bt, ["ND"]), "temperature", ">", 99.5)},
        # One reading round spans LIVE_PATIENTS ts units, so each
        # reading joins the same patient's latest other reading.
        "hr_bt_join": {"roles": ["D"], "plan": {
            "op": "join", "left": _shield(hr, ["D"]),
            "right": _shield(bt, ["D"]), "left_on": "patient_id",
            "right_on": "patient_id", "window": float(LIVE_PATIENTS)}},
        "avg_bpm": {"roles": ["D"], "plan": {
            "op": "groupby", "key": "patient_id", "agg": "avg",
            "attribute": "beats_per_min", "window": 200.0,
            "input": _shield(hr, ["D"])}},
    }


def live_health(seed: int, scale: float, seconds: float) -> Workload:
    """Paper Example 2 pushed through a session in an open loop.

    The feed is sized so the open loop at :data:`LIVE_RATE_EPS` lasts
    ``seconds``.
    """
    per_round = 4 * LIVE_PATIENTS
    rounds = max(2, round(seconds * LIVE_RATE_EPS * scale / per_round))
    generator = HealthStreamGenerator(n_patients=LIVE_PATIENTS, seed=seed)
    heart = list(generator.heart_rate(rounds))
    temperature = list(generator.body_temperature(rounds))
    return Workload(
        "live_health",
        streams={"HeartRate": (HEART_RATE_SCHEMA, heart),
                 "BodyTemperature": (BODY_TEMPERATURE_SCHEMA,
                                     temperature)},
        queries=_health_queries(), join_variant="index",
        analyze="strict", live=True)


NAMES = ("segment_fanout", "sp_dense", "audited_segment", "live_health")


def make(name: str, seed: int, seconds: float,
         scale: float = 1.0) -> Workload:
    """Generate workload ``name`` at ``seed`` (``scale`` shrinks it)."""
    if name == "live_health":
        return live_health(seed, scale, seconds)
    builders = {"segment_fanout": segment_fanout, "sp_dense": sp_dense,
                "audited_segment": audited_segment}
    return builders[name](seed, scale)
