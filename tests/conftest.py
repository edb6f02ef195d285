from hypothesis import settings

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")
