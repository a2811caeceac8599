import hypothesis

hypothesis.settings.register_profile("default", max_examples=60, deadline=None)
hypothesis.settings.load_profile("default")
