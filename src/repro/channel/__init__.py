"""Lossy-channel round model: message loss, delay, and retransmission.

The paper assumes a perfect shared broadcast bus — every scheduled
transmission arrives, in order, exactly once.  This package relaxes that
assumption the same way real CAN / wireless TDMA stacks do: a
:class:`~repro.channel.spec.ChannelSpec` describes per-slot message loss
(i.i.d. or bursty Gilbert–Elliott), per-slot delivery delay, and a bounded
retransmission policy that consumes tail slots of the schedule, and
:func:`~repro.channel.model.realize_channel` turns that spec into the
concrete per-round fate of every transmission.

The channel draws from its **own spawned generator** (one
``rng.spawn(1)[0]`` child per engine invocation, taken at a fixed point of
the shared prologue), so configuring no channel leaves every existing
payload bit-identical, and all four engine backends consume identical
channel randomness — the conformance suite checks them bit-for-bit under
any spec.  Semantics, RNG discipline and findings are documented in
``docs/CHANNELS.md``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "model": ("ChannelRealization", "ChannelRoundView", "realize_channel"),
        "spec": ("CHANNEL_MODELS", "ChannelSpec", "channel_spec_from_dict"),
    },
)
