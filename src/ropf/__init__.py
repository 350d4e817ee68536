"""Reactive power dispatch and pricing over an AC power flow."""
