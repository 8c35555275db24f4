from hypothesis import settings

# Property tests draw the same examples on every run, so a failure in the
# suite reproduces without a seed.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")
