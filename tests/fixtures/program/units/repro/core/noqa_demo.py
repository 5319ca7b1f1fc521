"""Suppression demo: one deliberate U001 with an inline waiver."""


def launch(power_dbm) -> None:  # repro: noqa[U001]
    pass
