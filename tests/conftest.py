from hypothesis import settings

# Property tests run in the default suite: fixed examples, no example
# database and few examples keep them reproducible and quick.
settings.register_profile(
    "bounded", derandomize=True, deadline=None, database=None, max_examples=40
)
settings.load_profile("bounded")
