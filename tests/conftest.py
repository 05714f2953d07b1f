from hypothesis import settings

# every property test runs without a deadline (the oracles are slow on some
# draws) and without an example database; each sets its own max_examples
settings.register_profile("atomon", deadline=None, database=None)
settings.load_profile("atomon")
