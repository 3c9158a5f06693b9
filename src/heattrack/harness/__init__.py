"""Config-driven experiment harness: validation, drivers, artifacts."""
