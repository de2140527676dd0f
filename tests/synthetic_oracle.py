"""Per-record reference generator for the columnar ``generate_synthetic``.

``oracle_generate`` is the record-at-a-time generator that
``ingest.generate_synthetic`` replaced: it draws the same values from the
same ``random.Random`` calls but builds one ``AttackRecord`` per record and
sorts the list, so tests can require both to give the same records in the
same order. It draws each subclass through ``choices`` with ten equal
weights, the weighted draw that ``generate_synthetic`` writes as one
multiplication.
"""

import random

from ddoscast.ingest import (
    _BPS_LOG_MEAN,
    _BPS_LOG_SIGMA,
    _COUNTRIES,
    _DURATION_LOG_MEAN,
    _DURATION_LOG_SIGMA,
    SECONDS_PER_DAY,
    UNIX_EPOCH,
    AttackClass,
    AttackRecord,
    Subclass,
    SyntheticSpec,
)


def oracle_generate(spec: SyntheticSpec) -> list[AttackRecord]:
    epoch_lo = (spec.start_date - UNIX_EPOCH).days * SECONDS_PER_DAY
    epoch_hi = ((spec.end_date - UNIX_EPOCH).days + 1) * SECONDS_PER_DAY

    rng = random.Random(spec.seed)
    records = []
    for _ in range(spec.record_count):
        subclass = rng.choices(list(Subclass), weights=[1.0] * 10)[0]
        start = rng.randrange(epoch_lo, epoch_hi)
        duration = int(rng.lognormvariate(_DURATION_LOG_MEAN, _DURATION_LOG_SIGMA))
        stop = min(start + duration, epoch_hi - 1)
        max_bps = int(rng.lognormvariate(_BPS_LOG_MEAN, _BPS_LOG_SIGMA))
        attack_class = AttackClass.MISUSE if rng.random() < 0.8 else AttackClass.DETECTOR
        dst_cc = (rng.choice(_COUNTRIES),) if rng.random() < 0.5 else None
        src_cc = tuple(rng.sample(_COUNTRIES, k=rng.randint(1, 3))) if rng.random() < 0.5 else None
        dst_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        src_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        records.append(
            AttackRecord(
                attack_class=attack_class,
                subclass=subclass,
                max_bps=max_bps,
                start=start,
                stop=stop,
                dst_cc=dst_cc,
                src_cc=src_cc,
                dst_ports=dst_ports,
                src_ports=src_ports,
            )
        )
    records.sort(key=lambda r: (r.start, r.subclass.value))
    return records
