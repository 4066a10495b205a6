"""Composable datapath stages + declarative deployment topology.

``stages`` are the reusable datapath pieces (ingest / transport /
steering / execution / completion) and the :class:`~repro.topology.
stages.OffloadShard` unit every offload deployment is made of; ``spec``
declares what a deployment is; ``registry`` maps every solution name to
a spec and builds servers from them; ``sharding`` is the offload server
on N DPUs (one for the paper's DDS), with ``replication``,
``resharding`` and ``qos`` as its opt-ins.  Import from the submodule that defines a name: ``core.server``
builds on ``stages``, and ``sharding`` and ``registry`` on ``core.server``.
"""
