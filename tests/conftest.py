import hypothesis

# exact arithmetic makes single examples slow; disable the per-example deadline
hypothesis.settings.register_profile("exact", deadline=None, max_examples=25)
# more examples for the exact-arithmetic kernels: pytest --hypothesis-profile thorough
hypothesis.settings.register_profile("thorough", deadline=None, max_examples=200)
hypothesis.settings.load_profile("exact")
