"""Dataset churn as first-class deltas: append/delete semantics.

Databases are immutable content — churn returns a *new*
:class:`~repro.db.transactions.TransactionDatabase` plus a
:class:`~repro.db.delta.DatasetDelta` that downstream incremental
maintenance validates against content digests.  This file pins those
semantics; what consumers *do* with a delta is proven in
``test_delta_differential.py``.
"""

import pytest

from repro.db import DatasetDelta, transactions_digest
from repro.db.delta import make_delta
from repro.db.transactions import TransactionDatabase
from repro.errors import DataError


@pytest.fixture()
def db():
    return TransactionDatabase([[1, 2, 3], [2, 3], [1, 4], [3, 4, 5]])


# ----------------------------------------------------------------------
# append
# ----------------------------------------------------------------------
def test_append_returns_new_versioned_database(db):
    new_db, delta = db.append([[5, 6], [1, 6]])
    assert len(db) == 4 and len(new_db) == 6
    assert db.version == 0 and new_db.version == 1
    assert new_db[4] == (5, 6) and new_db[5] == (1, 6)
    # The receiver's content is untouched.
    assert db.transactions == new_db.transactions[:4]


def test_append_normalizes_like_the_constructor(db):
    new_db, delta = db.append([[6, 5, 6]])
    assert new_db[4] == (5, 6)
    assert delta.added == ((5, 6),)
    rebuilt = TransactionDatabase(list(db.transactions) + [[6, 5, 6]])
    assert new_db.transactions == rebuilt.transactions


def test_append_delta_describes_the_step(db):
    new_db, delta = db.append([[5, 6]])
    assert delta.describes(
        transactions_digest(db.transactions),
        transactions_digest(new_db.transactions),
    )
    assert delta.base_size == 4 and delta.new_size == 5
    assert delta.added_tids == (4,)
    assert delta.removed == () and delta.removed_tids == ()
    assert delta.churn_fraction == pytest.approx(0.25)
    assert not delta.is_empty


def test_empty_append_is_an_empty_delta_with_same_digest(db):
    new_db, delta = db.append([])
    assert delta.is_empty
    assert delta.base_digest == delta.new_digest
    assert new_db.transactions == db.transactions
    assert new_db.version == 1  # still a new version of the same content


# ----------------------------------------------------------------------
# delete
# ----------------------------------------------------------------------
def test_delete_renumbers_survivors_densely(db):
    new_db, delta = db.delete([1, 3])
    assert new_db.transactions == ((1, 2, 3), (1, 4))
    assert delta.removed == ((2, 3), (3, 4, 5))
    assert delta.removed_tids == (1, 3)
    assert delta.added == ()
    assert new_db.version == db.version + 1


def test_delete_accepts_any_tid_order_and_dedups(db):
    forward, delta_f = db.delete([1, 3])
    backward, delta_b = db.delete([3, 1, 3])
    assert forward.transactions == backward.transactions
    assert delta_f.removed_tids == delta_b.removed_tids == (1, 3)


@pytest.mark.parametrize("bad", [[-1], [4], [0, 99]])
def test_delete_rejects_out_of_range_tids(db, bad):
    with pytest.raises(DataError):
        db.delete(bad)


def test_delete_everything_leaves_an_empty_database(db):
    new_db, delta = db.delete(range(len(db)))
    assert len(new_db) == 0
    assert delta.new_size == 0
    assert len(delta.removed) == 4


# ----------------------------------------------------------------------
# digests and chaining
# ----------------------------------------------------------------------
def test_digests_chain_across_churn_steps(db):
    db2, delta1 = db.append([[5, 6]])
    db3, delta2 = db2.delete([0])
    assert delta1.new_digest == delta2.base_digest
    assert delta2.new_digest == transactions_digest(db3.transactions)
    # Content digests are order-sensitive: a churned database never
    # collides with a differently-ordered equal multiset.
    assert delta1.base_digest != delta1.new_digest


def test_churned_content_equals_cold_construction(db):
    """A database reached via churn is indistinguishable (content and
    digest) from one built directly from the final transactions."""
    db2, _ = db.append([[2, 5], [1, 2, 4]])
    db3, _ = db2.delete([0, 4])
    direct = TransactionDatabase([list(t) for t in db3.transactions])
    assert db3.transactions == direct.transactions
    assert (transactions_digest(db3.transactions)
            == transactions_digest(direct.transactions))


def test_make_delta_derives_transactions_from_tids(db):
    new_db, _ = db.append([[5, 6]])
    delta = make_delta(
        db.transactions, new_db.transactions,
        base_digest="b", new_digest="n", added_tids=(4,),
    )
    assert delta.added == ((5, 6),)


def test_as_dict_is_flat_and_json_safe(db):
    _, delta = db.append([[5, 6]])
    doc = delta.as_dict()
    assert doc["added"] == 1 and doc["removed"] == 0
    assert doc["base_size"] == 4 and doc["new_size"] == 5
    assert isinstance(doc["churn_fraction"], float)
    assert isinstance(DatasetDelta(**{
        "base_digest": "b", "new_digest": "n",
        "base_size": 0, "new_size": 0,
    }).churn_fraction, float)


# ----------------------------------------------------------------------
# Immutability of served content (regression: the transactions property
# used to hand out the internal mutable list)
# ----------------------------------------------------------------------
def test_transactions_property_is_an_immutable_tuple(db):
    fetched = db.transactions
    assert isinstance(fetched, tuple)
    with pytest.raises(TypeError):
        fetched[0] = (9, 9)


def test_transactions_property_is_identity_stable(db):
    # Caching layers key prepared state by id(db.transactions); the
    # property must return the same stored object every call.
    assert db.transactions is db.transactions


def test_mutating_a_fetched_copy_cannot_change_answers(db):
    before = db.support((2, 3))
    fetched = list(db.transactions)
    fetched.clear()
    assert db.support((2, 3)) == before
    assert len(db) == 4
