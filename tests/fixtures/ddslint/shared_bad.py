"""ddslint fixture: atomicity violations in a shared class."""


class BadQueue:
    def __init__(self):
        self.count = 0
        self.items = []
        self.table = {}
        self._lock = None

    def push(self, item):
        self.count += 1
        self.items.append(item)

    def merge(self, others):
        self.count = self.count + len(others)

    def drop(self, key):
        del self.table[key]

    def alias_mutation(self):
        bucket = self.items
        bucket.append(0)

    def locked_push(self, item):
        with self._lock:
            self.items.append(item)

    def get_alias_mutation(self, key):
        bucket = self.table.get(key)
        bucket.append(0)

    def setdefault_alias_mutation(self, key):
        bucket = self.table.setdefault(key, [])
        bucket[0] = 1

    def or_alias_mutation(self, key):
        bucket = self.table[key] or ()
        bucket[0] = 1

    def rebound_alias_is_forgotten(self, key):
        bucket = self.table.get(key) or []
        bucket = list(bucket)
        bucket.append(0)

    def copy_is_not_an_alias(self):
        keys = sorted(self.table)
        keys.append(0)
