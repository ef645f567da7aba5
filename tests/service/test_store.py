"""Result store tests: batch keying and the in-flight claim protocol."""

import threading

from repro.service.store import RETAINED_FINISHED_JOBS, ResultStore, batch_key


class TestBatchKey:
    def test_key_is_content_stable(self):
        specs = [{"label": "a", "attack": "uaa"}]
        config = {"regions": 64, "seed": 7}
        options = {"engine": "fluid-batched"}
        assert batch_key(config, options, specs) == batch_key(
            dict(config), dict(options), list(specs)
        )

    def test_key_changes_with_any_component(self):
        base = batch_key({"seed": 7}, {"engine": "e"}, [{"label": "a"}])
        assert base != batch_key({"seed": 8}, {"engine": "e"}, [{"label": "a"}])
        assert base != batch_key({"seed": 7}, {"engine": "f"}, [{"label": "a"}])
        assert base != batch_key({"seed": 7}, {"engine": "e"}, [{"label": "b"}])


class TestClaimProtocol:
    def test_first_claim_owns_second_waits(self):
        store = ResultStore()
        assert store.claim("k") == ResultStore.OWNER
        assert store.claim("k") == ResultStore.WAIT

    def test_publish_serves_waiters_and_later_claims(self):
        store = ResultStore()
        store.claim("k")
        served = []
        waiter = threading.Thread(target=lambda: served.append(store.wait("k", 10.0)))
        waiter.start()
        store.publish("k", "body")
        waiter.join(timeout=5.0)
        assert served == ["body"]
        assert store.claim("k") == ResultStore.PUBLISHED
        assert store.get("k") == "body"

    def test_release_promotes_a_waiter_to_owner(self):
        store = ResultStore()
        assert store.claim("k") == ResultStore.OWNER
        outcome = []

        def waiter():
            body = store.wait("k", 10.0)
            if body is None:
                outcome.append(store.claim("k"))

        thread = threading.Thread(target=waiter)
        thread.start()
        store.release("k")  # owner failed without publishing
        thread.join(timeout=5.0)
        assert outcome == [ResultStore.OWNER]

    def test_wait_timeout_returns_none_while_owner_runs(self):
        store = ResultStore()
        store.claim("k")
        assert store.wait("k", timeout=0.05) is None

    def test_len_counts_published_only(self):
        store = ResultStore()
        store.claim("a")
        assert len(store) == 0
        store.publish("a", "x")
        store.publish("b", "y")
        assert len(store) == 2


class TestRetention:
    """The store keeps the bodies of the newest RETAINED_FINISHED_JOBS
    published keys."""

    @staticmethod
    def filled() -> "tuple[ResultStore, list]":
        store = ResultStore()
        keys = [f"k{i}" for i in range(RETAINED_FINISHED_JOBS)]
        assert [store.publish(key, key.upper()) for key in keys] == [0] * len(keys)
        return store, keys

    def test_oldest_published_body_leaves_first(self):
        store, keys = self.filled()
        assert store.publish("new", "NEW") == 1
        assert store.get(keys[0]) is None
        assert [store.get(key) for key in keys[1:]] == [key.upper() for key in keys[1:]]
        assert store.get("new") == "NEW"
        assert len(store) == RETAINED_FINISHED_JOBS

    def test_republish_makes_a_key_newest(self):
        store, keys = self.filled()
        store.publish(keys[0], keys[0].upper())
        assert store.publish("new", "NEW") == 1
        assert store.get(keys[1]) is None
        assert store.get(keys[0]) == keys[0].upper()

    def test_claim_on_an_evicted_key_owns_it(self):
        store, keys = self.filled()
        store.publish("new", "NEW")
        assert store.claim(keys[0]) == ResultStore.OWNER
        assert store.claim(keys[1]) == ResultStore.PUBLISHED
