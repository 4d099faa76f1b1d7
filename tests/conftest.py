from hypothesis import settings

# No per-example deadline: property tests that check against O(p^3)
# reference solves run slower, not wrong, on a loaded two-core host.
settings.register_profile("kernelspectra", deadline=None)
settings.load_profile("kernelspectra")
