"""TPC-C data loader.

Deterministic (seeded) population following the spec's shapes: NURand
last names, per-district customer blocks, initial orders with 5-15
lines each, the newest third of orders undelivered (in NEW_ORDER).

Loading bypasses the SQL layer and inserts through the executor's
shared path for speed; constraints are still enforced.
"""

from __future__ import annotations

import random
import string
from datetime import datetime, timedelta
from decimal import Decimal

from typing import Sequence

from ..db import Database
from ..exec.plan import ExecutionContext
from .schema import ScaleConfig

# The spec's syllable table for C_LAST generation.
_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)

_EPOCH = datetime(2021, 6, 20, 0, 0, 0)


def customer_last_name(number: int) -> str:
    """C_LAST from a number in [0, 999] (spec 4.3.2.3)."""
    return (
        _SYLLABLES[number // 100]
        + _SYLLABLES[(number // 10) % 10]
        + _SYLLABLES[number % 10]
    )


class NURand:
    """Non-uniform random values (spec 2.1.6)."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.c_last = rng.randint(0, 255)
        self.c_id = rng.randint(0, 1023)
        self.i_id = rng.randint(0, 8191)

    def _nurand(self, a: int, c: int, x: int, y: int) -> int:
        rng = self.rng
        return (
            ((rng.randint(0, a) | rng.randint(x, y)) + c) % (y - x + 1)
        ) + x

    def customer_id(self, max_id: int) -> int:
        return self._nurand(1023, self.c_id, 1, max_id)

    def item_id(self, max_id: int) -> int:
        return self._nurand(8191, self.i_id, 1, max_id)

    def last_name_number(self, pool: int = 1000) -> int:
        return self._nurand(255, self.c_last, 0, pool - 1) % pool


def _text(rng: random.Random, low: int, high: int) -> str:
    length = rng.randint(low, high)
    return "".join(rng.choices(string.ascii_lowercase, k=length))


def load_tpcc(
    db: Database,
    scale: ScaleConfig,
    warehouse_ids: Sequence[int] | None = None,
) -> None:
    """Populate all nine tables at the given scale.

    ``warehouse_ids`` restricts the warehouse-rooted tables to a subset
    of warehouses — how a cluster shard loads only the partition it
    owns (``item`` is always loaded in full; it is replicated).  When a
    subset is requested each warehouse gets its own RNG seeded from
    ``(scale.seed, w_id)``, so the data a shard generates for warehouse
    *w* does not depend on which other warehouses it owns.  The default
    full load keeps the original single sequential RNG, byte-identical
    with what it always produced.
    """
    rng = random.Random(scale.seed)
    session = db.connect()
    session.internal = True
    executor = db.executor
    catalog = db.catalog

    def bulk(table_name: str, rows: list[dict]) -> None:
        session.begin()
        ctx = session._context()
        columns = tuple(rows[0]) if rows else ()
        values = [tuple([row[c] for c in columns]) for row in rows]
        executor.insert_rows(catalog.table(table_name), columns, values, ctx)
        session.commit()

    # ------------------------------------------------------------ item
    items = [
        {
            "i_id": i,
            "i_im_id": rng.randint(1, 10_000),
            "i_name": _text(rng, 14, 24),
            "i_price": Decimal(rng.randint(100, 10_000)) / 100,
            "i_data": _text(rng, 26, 50),
        }
        for i in range(1, scale.items + 1)
    ]
    bulk("item", items)

    if warehouse_ids is None:
        selected: Sequence[int] = range(1, scale.warehouses + 1)
    else:
        selected = sorted({int(w) for w in warehouse_ids})
        bad = [w for w in selected if not 1 <= w <= scale.warehouses]
        if bad:
            raise ValueError(
                f"warehouse ids {bad} out of range 1-{scale.warehouses}"
            )

    for w_id in selected:
        if warehouse_ids is not None:
            rng = random.Random(scale.seed * 1_000_003 + w_id)
        bulk(
            "warehouse",
            [
                {
                    "w_id": w_id,
                    "w_name": _text(rng, 6, 10),
                    "w_street_1": _text(rng, 10, 20),
                    "w_city": _text(rng, 10, 20),
                    "w_state": "MD",
                    "w_zip": "206420000",
                    "w_tax": Decimal(rng.randint(0, 2000)) / 10_000,
                    "w_ytd": Decimal("300000.00"),
                }
            ],
        )
        # ------------------------------------------------------- stock
        stock_rows = [
            {
                "s_w_id": w_id,
                "s_i_id": i,
                "s_quantity": rng.randint(10, 100),
                "s_dist_01": _text(rng, 24, 24),
                "s_ytd": 0,
                "s_order_cnt": 0,
                "s_remote_cnt": 0,
                "s_data": _text(rng, 26, 50),
            }
            for i in range(1, scale.items + 1)
        ]
        bulk("stock", stock_rows)

        for d_id in range(1, scale.districts_per_warehouse + 1):
            next_o_id = scale.initial_orders_per_district + 1
            bulk(
                "district",
                [
                    {
                        "d_w_id": w_id,
                        "d_id": d_id,
                        "d_name": _text(rng, 6, 10),
                        "d_street_1": _text(rng, 10, 20),
                        "d_city": _text(rng, 10, 20),
                        "d_state": "MD",
                        "d_zip": "206420000",
                        "d_tax": Decimal(rng.randint(0, 2000)) / 10_000,
                        "d_ytd": Decimal("30000.00"),
                        "d_next_o_id": next_o_id,
                    }
                ],
            )
            # ------------------------------------------------ customer
            customers = []
            histories = []
            for c_id in range(1, scale.customers_per_district + 1):
                if c_id <= min(scale.customers_per_district, 1000):
                    last = customer_last_name((c_id - 1) % 1000)
                else:
                    last = customer_last_name(rng.randint(0, 999))
                customers.append(
                    {
                        "c_w_id": w_id,
                        "c_d_id": d_id,
                        "c_id": c_id,
                        "c_first": _text(rng, 8, 16),
                        "c_middle": "OE",
                        "c_last": last,
                        "c_street_1": _text(rng, 10, 20),
                        "c_city": _text(rng, 10, 20),
                        "c_state": "MD",
                        "c_zip": "206420000",
                        "c_phone": "".join(rng.choices(string.digits, k=16)),
                        "c_since": _EPOCH,
                        "c_credit": "BC" if rng.random() < 0.1 else "GC",
                        "c_credit_lim": Decimal("50000.00"),
                        "c_discount": Decimal(rng.randint(0, 5000)) / 10_000,
                        "c_balance": Decimal("-10.00"),
                        "c_ytd_payment": Decimal("10.00"),
                        "c_payment_cnt": 1,
                        "c_delivery_cnt": 0,
                        "c_data": _text(rng, 50, 250),
                    }
                )
                histories.append(
                    {
                        "h_c_id": c_id,
                        "h_c_d_id": d_id,
                        "h_c_w_id": w_id,
                        "h_d_id": d_id,
                        "h_w_id": w_id,
                        "h_date": _EPOCH,
                        "h_amount": Decimal("10.00"),
                        "h_data": _text(rng, 12, 24),
                    }
                )
            bulk("customer", customers)
            bulk("history", histories)

            # -------------------------------------------------- orders
            order_rows = []
            new_order_rows = []
            line_rows = []
            customer_permutation = list(
                range(1, scale.customers_per_district + 1)
            )
            rng.shuffle(customer_permutation)
            for o_id in range(1, scale.initial_orders_per_district + 1):
                c_id = customer_permutation[
                    (o_id - 1) % scale.customers_per_district
                ]
                line_count = rng.randint(
                    scale.min_lines_per_order, scale.max_lines_per_order
                )
                entry = _EPOCH + timedelta(seconds=o_id)
                delivered = o_id < next_o_id - (
                    scale.initial_orders_per_district // 3
                )
                order_rows.append(
                    {
                        "o_w_id": w_id,
                        "o_d_id": d_id,
                        "o_id": o_id,
                        "o_c_id": c_id,
                        "o_entry_d": entry,
                        "o_carrier_id": rng.randint(1, 10) if delivered else None,
                        "o_ol_cnt": line_count,
                        "o_all_local": 1,
                    }
                )
                if not delivered:
                    new_order_rows.append(
                        {"no_o_id": o_id, "no_d_id": d_id, "no_w_id": w_id}
                    )
                for number in range(1, line_count + 1):
                    line_rows.append(
                        {
                            "ol_w_id": w_id,
                            "ol_d_id": d_id,
                            "ol_o_id": o_id,
                            "ol_number": number,
                            "ol_i_id": rng.randint(1, scale.items),
                            "ol_supply_w_id": w_id,
                            "ol_delivery_d": entry if delivered else None,
                            "ol_quantity": 5,
                            "ol_amount": (
                                Decimal("0.00")
                                if delivered
                                else Decimal(rng.randint(1, 999_999)) / 100
                            ),
                            "ol_dist_info": _text(rng, 24, 24),
                        }
                    )
            bulk("orders", order_rows)
            bulk("new_order", new_order_rows)
            bulk("order_line", line_rows)
