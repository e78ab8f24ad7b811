"""The inter-domain controller sharded across N enclave instances.

Scale-out deployment of the paper's Figure 2 controller: the
consistent-hash partitioning and merge logic live in
:mod:`repro.routing.sharding`; this module hosts one
:class:`ShardCore` per enclave and moves every inter-shard byte over
mutually attested record channels — policy broadcast, route-slice
exchange and cross-shard route queries all ride
:class:`~repro.net.channel.SecureRecordChannel` records, batched K at
a time (one sequence number, one MAC) through
:meth:`~repro.sgx.enclave.Enclave.ecall_batch` crossings.

The untrusted driver (:class:`ShardedRoutingDeployment`) owns only
public metadata: the ring (AS -> shard ownership is routing metadata,
not a secret) and the ciphertext frames it shuttles between enclaves.
Policies and RIBs never leave enclave memory unencrypted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults, obs
from repro.cost import context as cost_context
from repro.crypto.drbg import Rng
from repro.errors import ProtocolError, ShardError
from repro.core.app import SecureApplicationProgram
from repro.core.world import World
from repro.routing import messages as msg
from repro.routing.deployment import build_policies
from repro.routing.policy import LocalPolicy
from repro.routing.sharding import ShardCore, ShardTree
from repro.sgx.attestation import IdentityPolicy
from repro.sgx.measurement import measure_program
from repro.sgx.platform import SgxPlatform
from repro.wire import Reader, Writer

__all__ = ["ShardControllerProgram", "ShardedRoutingDeployment"]

# Inter-shard message tags (disjoint from repro.routing.messages so a
# misrouted frame fails loudly in decode).
SMSG_POLICY = 10
SMSG_SLICE = 11
SMSG_QUERY = 12
SMSG_REPLY = 13
#: Relay envelope for the two-level (region -> shard) deployment:
#: ``u8 tag | u64 dest_shard | u64 origin_shard | varbytes inner``.
#: Shards without a direct session reach each other through region
#: heads; each hop decrypts, re-encrypts and forwards along its
#: configured route table, charging the relay work as it goes.
SMSG_FWD = 14


def _charge_serialize(n_bytes: int) -> None:
    model = cost_context.current_model()
    cost_context.charge_normal(model.serialize_byte_normal * n_bytes)


class ShardControllerProgram(SecureApplicationProgram):
    """One shard of the inter-domain controller, in its enclave."""

    def on_load(self, ctx) -> None:
        super().on_load(ctx)
        self._core: Optional[ShardCore] = None
        self._replies: Dict[int, bytes] = {}
        self._fwd_routes: Dict[int, str] = {}

    # -- configuration ecalls ------------------------------------------------

    def configure_shard(self, shard_id: int) -> None:
        self._core = ShardCore(shard_id, alloc_hook=self.ctx.alloc)

    def configure_forwarding(self, routes: Dict[int, str]) -> None:
        """Install the next-hop table for the two-level deployment.

        ``routes`` maps every reachable shard id to the session the
        next hop rides on — a direct session where one exists, the
        region head's otherwise.  The driver re-pushes tables after
        failover; the table itself is public routing metadata (who can
        reach whom), never policy content.
        """
        self._fwd_routes = dict(routes)

    def shard_stats(self) -> Dict[str, int]:
        core = self._require_core()
        return {
            "policies_owned": core.stats.policies_owned,
            "policies_synced_in": core.stats.policies_synced_in,
            "cross_shard_queries": core.stats.cross_shard_queries,
            "slice_routes_in": core.stats.slice_routes_in,
            "slice_routes_out": core.stats.slice_routes_out,
            "rehomed_ases": core.stats.rehomed_ases,
        }

    def owned_ases(self) -> List[int]:
        return sorted(self._require_core().owned)

    # -- registration (client-facing) ---------------------------------------

    @obs.traced("shard:submit_policy", kind="app")
    def submit_policy(self, policy_bytes: bytes) -> int:
        """A client registers an AS this shard owns."""
        _charge_serialize(len(policy_bytes))
        policy = LocalPolicy.decode(policy_bytes)
        self._require_core().submit_policy(policy)
        return policy.asn

    @obs.traced("shard:re_register", kind="app")
    def re_register(self, asn: int, policy_bytes: bytes) -> bytes:
        """Steady-state failover re-registration (byte-identical only).

        Mirrors the unsharded controller's session-failover contract:
        a re-registration carrying a *different* policy for a live AS
        is refused; a byte-identical one gets its route slice re-sent.
        """
        core = self._require_core()
        _charge_serialize(len(policy_bytes))
        if core.controller.policy_of(asn).encode() != policy_bytes:
            raise ShardError(f"AS{asn} already represented")
        encoded = core.reply_for(asn)
        _charge_serialize(len(encoded))
        return encoded

    # -- sync phase (driver-sequenced, channel-carried) ----------------------

    @obs.traced("shard:broadcast_policies", kind="app")
    def broadcast_policies(
        self,
        session_ids: List[str],
        batch_size: int,
        fwd: Optional[Dict[int, str]] = None,
    ) -> int:
        """Send every owned policy to each peer session, batched.

        ``fwd`` (two-level deployments) maps shards *without* a direct
        session to the next-hop session; their copies travel wrapped in
        :data:`SMSG_FWD` envelopes and are relayed by region heads.
        """
        core = self._require_core()
        payloads = []
        for asn in sorted(core.owned):
            body = core.controller.policy_of(asn).encode()
            payload = Writer().u8(SMSG_POLICY).varbytes(body).getvalue()
            _charge_serialize(len(payload))
            payloads.append(payload)
        for session_id in session_ids:
            self._send_payloads(session_id, payloads, batch_size)
        if fwd:
            for dest in sorted(fwd):
                wrapped = [self._wrap_fwd(dest, p) for p in payloads]
                self._send_payloads(fwd[dest], wrapped, batch_size)
        return len(payloads)

    @obs.traced("shard:compute_partition", kind="app")
    def compute_partition(self) -> int:
        """Compute this shard's origin partition; returns route count."""
        computed = self._require_core().compute()
        return sum(len(routes) for routes in computed.values())

    @obs.traced("shard:send_slices", kind="app")
    def send_slices(
        self,
        owner_map: Dict[int, int],
        session_by_shard: Dict[int, str],
        batch_size: int,
        only: Optional[List[int]] = None,
        direct: Optional[List[int]] = None,
    ) -> int:
        """Route-slice exchange: ship each AS's routes to its owner.

        Our own slice merges locally; peers' slices travel as batched
        records.  ``only`` narrows to specific ASNs (failover replay).
        ``direct`` (two-level deployments) lists peers reachable on a
        direct session; slices for any other shard are wrapped in
        :data:`SMSG_FWD` and relayed via ``session_by_shard``'s next
        hop.
        """
        core = self._require_core()
        wanted = None if only is None else set(only)
        relayed = None if direct is None else set(direct)
        sent = 0
        for peer_id, slices in sorted(core.slices_for(owner_map).items()):
            if wanted is not None:
                slices = {
                    asn: routes
                    for asn, routes in slices.items()
                    if asn in wanted
                }
            if not slices:
                continue
            if peer_id == core.shard_id:
                core.merge_slice(slices)
                continue
            payloads = []
            for asn in sorted(slices):
                encoded = msg.encode_routes_msg(slices[asn])
                payload = (
                    Writer()
                    .u8(SMSG_SLICE)
                    .u64(asn)
                    .varbytes(encoded)
                    .getvalue()
                )
                _charge_serialize(len(payload))
                if relayed is not None and peer_id not in relayed:
                    payload = self._wrap_fwd(peer_id, payload)
                payloads.append(payload)
                sent += 1
            self._send_payloads(session_by_shard[peer_id], payloads, batch_size)
        return sent

    # -- serving (client-facing front, cross-shard back) ---------------------

    @obs.traced("shard:front_requests", kind="app")
    def front_requests(
        self,
        requests: List[Tuple[int, int]],
        owner_map: Dict[int, int],
        session_by_shard: Dict[int, str],
        batch_size: int,
        direct: Optional[List[int]] = None,
    ) -> Dict[int, bytes]:
        """Serve ``(req_id, asn)`` requests landing on this front shard.

        Owned ASes answer immediately; the rest become cross-shard
        queries, batched per owner session — the replies arrive via the
        record channel and are picked up with :meth:`take_replies`.
        ``direct`` (two-level deployments) lists peers with a direct
        session; queries for other owners ride :data:`SMSG_FWD`
        envelopes through region heads, and their replies come back the
        same way.
        """
        core = self._require_core()
        relayed = None if direct is None else set(direct)
        served: Dict[int, bytes] = {}
        queries: Dict[str, List[bytes]] = {}
        for req_id, asn in requests:
            owner = owner_map.get(asn)
            if owner is None:
                raise ShardError(f"AS{asn} has no owner")
            if owner == core.shard_id:
                encoded = core.reply_for(asn)
                _charge_serialize(len(encoded))
                served[req_id] = encoded
                continue
            core.stats.cross_shard_queries += 1
            payload = (
                Writer().u8(SMSG_QUERY).u64(req_id).u64(asn).getvalue()
            )
            _charge_serialize(len(payload))
            if relayed is not None and owner not in relayed:
                payload = self._wrap_fwd(owner, payload)
            queries.setdefault(session_by_shard[owner], []).append(payload)
        for session_id in sorted(queries):
            self._send_payloads(session_id, queries[session_id], batch_size)
        return served

    def take_replies(self, req_ids: List[int]) -> Dict[int, bytes]:
        """Collect cross-shard answers that arrived for these requests."""
        out: Dict[int, bytes] = {}
        for req_id in req_ids:
            if req_id in self._replies:
                out[req_id] = self._replies.pop(req_id)
        return out

    # -- failover ecalls -----------------------------------------------------

    @obs.traced("shard:adopt_as", kind="app")
    def adopt_as(self, asn: int, policy_bytes: bytes) -> None:
        """Take ownership of an AS re-homed off a crashed shard."""
        _charge_serialize(len(policy_bytes))
        self._require_core().adopt(asn, policy_bytes)

    @obs.traced("shard:compute_extra", kind="app")
    def compute_extra(self, origins: List[int]) -> int:
        """Recompute a crashed shard's partition for inherited origins."""
        core = self._require_core()
        extra = core.controller.compute_partition(sorted(origins))
        if core.computed is None:
            core.computed = {}
        count = 0
        for asn, routes in extra.items():
            if routes:
                core.computed.setdefault(asn, {}).update(routes)
                count += len(routes)
        return count

    # -- secure-message handling (inter-shard channel) -----------------------

    def _on_secure_message(self, session_id: str, payload: bytes) -> Optional[bytes]:
        core = self._require_core()
        _charge_serialize(len(payload))
        reader = Reader(payload)
        tag = reader.u8()
        if tag == SMSG_POLICY:
            core.ingest_policy(LocalPolicy.decode(reader.varbytes()))
            return None
        if tag == SMSG_SLICE:
            asn = reader.u64()
            decoded_tag, routes = msg.decode_msg(reader.varbytes())
            if decoded_tag != msg.MSG_ROUTES:
                raise ProtocolError("slice payload is not a routes message")
            core.merge_slice({asn: routes})  # type: ignore[dict-item]
            return None
        if tag == SMSG_QUERY:
            req_id = reader.u64()
            asn = reader.u64()
            encoded = core.reply_for(asn)
            reply = (
                Writer()
                .u8(SMSG_REPLY)
                .u64(req_id)
                .varbytes(encoded)
                .getvalue()
            )
            _charge_serialize(len(reply))
            return reply
        if tag == SMSG_REPLY:
            req_id = reader.u64()
            self._replies[req_id] = reader.varbytes()
            return None
        if tag == SMSG_FWD:
            dest = reader.u64()
            origin = reader.u64()
            inner = reader.varbytes()
            if dest != core.shard_id:
                # Relay hop: decrypt happened on receive, re-encrypt on
                # the next-hop session — the envelope travels verbatim.
                self._route_payload(dest, payload)
                return None
            reply = self._on_secure_message(session_id, inner)
            if reply is not None:
                # Replies to relayed queries retrace the route table
                # rather than riding the synchronous reply slot (a
                # relayed frame may be several hops from its origin).
                self._route_payload(origin, self._wrap_fwd(origin, reply))
            return None
        raise ProtocolError(f"unknown inter-shard message tag {tag}")

    # -- helpers -------------------------------------------------------------

    def _wrap_fwd(self, dest: int, inner: bytes) -> bytes:
        payload = (
            Writer()
            .u8(SMSG_FWD)
            .u64(dest)
            .u64(self._require_core().shard_id)
            .varbytes(inner)
            .getvalue()
        )
        _charge_serialize(len(payload))
        return payload

    def _route_payload(self, dest: int, payload: bytes) -> None:
        session_id = self._fwd_routes.get(dest)
        if session_id is None:
            raise ShardError(f"no forwarding route to shard {dest}")
        _charge_serialize(len(payload))
        self._send_secure(session_id, payload)

    def _send_payloads(
        self, session_id: str, payloads: Sequence[bytes], batch_size: int
    ) -> None:
        """Queue payloads as batched records of up to ``batch_size``."""
        if not payloads:
            return
        step = max(1, batch_size)
        for i in range(0, len(payloads), step):
            chunk = list(payloads[i : i + step])
            if len(chunk) == 1:
                self._send_secure(session_id, chunk[0])
            else:
                self._send_secure_batch(session_id, chunk)

    def _require_core(self) -> ShardCore:
        if self._core is None:
            raise ShardError("shard not configured")
        return self._core


class ShardedRoutingDeployment:
    """S controller-shard enclaves plus the untrusted driver glue.

    Construction builds the platforms, loads the enclaves and
    establishes the mutually attested inter-shard sessions (one-time
    costs, like attestation in the Table experiments).
    ``register_all`` + ``seal`` run the policy phase; ``serve_batch``
    is the steady-state request path the load engine drives.

    The shards form a two-level tree of ``regions`` regions (default:
    one): shard ``s`` lives in region ``s % R``, sessions exist only
    within a region plus between region *heads* (the lowest live shard
    id per region), ownership follows
    :class:`~repro.routing.sharding.ShardTree`, and cross-region
    traffic rides :data:`SMSG_FWD` relays through the heads — session
    count drops from O(S^2) to O(S^2/R + R^2).  One region is the
    all-pairs deployment: every shard pair holds a direct session,
    nothing relays, and no forwarding table is pushed.
    """

    def __init__(
        self,
        n_shards: int,
        n_ases: int = 24,
        seed: bytes = b"load-routing",
        batch: int = 1,
        regions: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ShardError("need at least one shard")
        if regions is not None and regions < 1:
            raise ShardError("need at least one region")
        self.n_shards = n_shards
        self.batch = max(1, batch)
        self.topology, self.policies = build_policies(n_ases, seed)
        n_regions = 1 if regions is None else min(regions, n_shards)
        #: Only a multi-region tree has pairs without a session, so only
        #: it pushes relay tables.
        self._relays = n_regions > 1
        self.region_of_shard = {
            shard: shard % n_regions for shard in range(n_shards)
        }
        members: Dict[int, List[int]] = {}
        for shard in range(n_shards):
            members.setdefault(shard % n_regions, []).append(shard)
        self.ring = ShardTree(members)
        self.dead: set = set()
        self._sealed = False
        #: live shard id -> (next-hop session per live dest, sorted
        #: direct peers), and the owner map; rebuilt by
        #: :meth:`_push_routes`, read-only in between.
        self._routes: Dict[int, Tuple[Dict[int, str], List[int]]] = {}
        self._owners: Dict[int, int] = {}

        world = World(seed)
        peer_policy = IdentityPolicy.for_mrenclave(
            measure_program(ShardControllerProgram)
        )

        self.platforms: Dict[int, SgxPlatform] = {}
        self.enclaves: Dict[int, object] = {}
        for shard_id in range(n_shards):
            platform = SgxPlatform(
                f"shard{shard_id}",
                authority=world.authority,
                rng=Rng(seed, f"shard{shard_id}"),
            )
            enclave = platform.load_enclave(
                ShardControllerProgram(), author_key=world.author, name=f"shard{shard_id}"
            )
            self.platforms[shard_id] = platform
            self.enclaves[shard_id] = enclave
        # verification_info needs at least one registered QE, so trust
        # configuration runs after every platform exists.
        info = world.authority.verification_info()
        for shard_id in range(n_shards):
            self.enclaves[shard_id].ecall("configure_trust", info, peer_policy)
            self.enclaves[shard_id].ecall("configure_shard", shard_id)

        #: session id shared by a shard pair, symmetric lookup.
        self.sessions: Dict[Tuple[int, int], str] = {}
        # Pairs within each region plus pairs between region heads; at
        # one region this is every (i, j), established in order.
        pairs = {
            (a, b)
            for group in members.values()
            for i, a in enumerate(group)
            for b in group[i + 1 :]
        }
        heads = sorted(group[0] for group in members.values())
        pairs.update(
            (a, b) for i, a in enumerate(heads) for b in heads[i + 1 :]
        )
        for a, b in sorted(pairs):
            self._establish(a, b)
        self._push_routes()

    # -- session plumbing ----------------------------------------------------

    def _establish(self, i: int, j: int) -> None:
        """Pairwise mutual attestation by shuttling handshake frames."""
        session_id = f"shard{i}-shard{j}"
        client, server = self.enclaves[i], self.enclaves[j]
        server.ecall("session_accept", session_id)
        frame = client.ecall("session_connect", session_id)
        while frame is not None:
            reply = server.ecall("session_handle", session_id, frame)
            if reply is None:
                break
            frame = client.ecall("session_handle", session_id, reply)
        if not (
            client.ecall("session_established", session_id)
            and server.ecall("session_established", session_id)
        ):
            raise ShardError(f"inter-shard session {session_id} failed")
        self.sessions[(i, j)] = session_id
        self.sessions[(j, i)] = session_id

    def _session_map(self, shard_id: int) -> Dict[int, str]:
        """Peer shard id -> session id, from one shard's point of view."""
        return {
            peer: sid
            for (a, peer), sid in self.sessions.items()
            if a == shard_id and peer not in self.dead
        }

    # -- two-level routing ---------------------------------------------------

    def _head(self, region: int) -> int:
        """The live region head: lowest live shard id in the region."""
        members = [
            shard
            for shard in self._live_ids()
            if self.region_of_shard[shard] == region
        ]
        if not members:
            raise ShardError(f"region {region} has no live shards")
        return min(members)

    def _heads(self) -> List[int]:
        live_regions = sorted(
            {self.region_of_shard[shard] for shard in self._live_ids()}
        )
        return [self._head(region) for region in live_regions]

    def _route_map(self, shard_id: int) -> Dict[int, str]:
        """Dest shard id -> next-hop session id for every live dest.

        Direct sessions route directly; everything else goes through
        this shard's region head (members) or the destination region's
        head (heads) — exactly the table pushed via
        ``configure_forwarding``.
        """
        routes = self._session_map(shard_id)
        my_head = self._head(self.region_of_shard[shard_id])
        for dest in self._live_ids():
            if dest == shard_id or dest in routes:
                continue
            if shard_id == my_head:
                hop = self._head(self.region_of_shard[dest])
            else:
                hop = my_head
            routes[dest] = self.sessions[(shard_id, hop)]
        return routes

    def _push_routes(self) -> None:
        """Rebuild the owner map and every live shard's routing table
        after a membership change, and push the tables to the enclaves
        when anything relays."""
        self._owners = self.owner_map()
        self._routes = {
            shard_id: (
                self._route_map(shard_id),
                sorted(self._session_map(shard_id)),
            )
            for shard_id in self._live_ids()
        }
        if not self._relays or self.n_live <= 1:
            return
        for shard_id in self._live_ids():
            self.enclaves[shard_id].ecall(
                "configure_forwarding", self._routes[shard_id][0]
            )

    def _peer_of(self, shard_id: int, session_id: str) -> int:
        for (a, b), sid in self.sessions.items():
            if sid == session_id and a == shard_id:
                return b
        raise ShardError(f"no peer for session {session_id}")

    def pump(self, max_rounds: int = 64) -> None:
        """Deliver queued inter-shard frames until the network is quiet.

        Bounded so a protocol bug can never hang a run; replies a
        ``session_handle`` returns synchronously are delivered straight
        back to the sender.
        """
        for _ in range(max_rounds):
            moved = False
            for shard_id in self._live_ids():
                enclave = self.enclaves[shard_id]
                for session_id in sorted(enclave.ecall("pending_sessions")):
                    peer_id = self._peer_of(shard_id, session_id)
                    if peer_id in self.dead:
                        enclave.ecall("collect_outgoing", session_id)  # drop
                        continue
                    frames = enclave.ecall("collect_outgoing", session_id)
                    peer = self.enclaves[peer_id]
                    for frame in frames:
                        moved = True
                        reply = peer.ecall("session_handle", session_id, frame)
                        if reply is not None:
                            back = enclave.ecall(
                                "session_handle", session_id, reply
                            )
                            if back is not None:
                                raise ShardError(
                                    "unexpected three-way inter-shard exchange"
                                )
            if not moved:
                return
        raise ShardError("inter-shard pump did not quiesce")

    def _live_ids(self) -> List[int]:
        return [s for s in sorted(self.enclaves) if s not in self.dead]

    # -- phases --------------------------------------------------------------

    def owner_map(self) -> Dict[int, int]:
        return {asn: self.ring.owner(asn) for asn in self.topology.asns}

    def register_all(self) -> None:
        """Every AS registers its policy with its owner shard (batched)."""
        by_owner: Dict[int, List[int]] = {}
        for asn in sorted(self.policies):
            by_owner.setdefault(self.ring.owner(asn), []).append(asn)
        for shard_id in sorted(by_owner):
            enclave = self.enclaves[shard_id]
            asns = by_owner[shard_id]
            for i in range(0, len(asns), self.batch):
                chunk = asns[i : i + self.batch]
                calls = [
                    ("submit_policy", (self.policies[asn].encode(),), {})
                    for asn in chunk
                ]
                enclave.ecall_batch(calls)

    def seal(self) -> None:
        """Policy broadcast, partition compute, route-slice exchange."""
        if self._sealed:
            return
        owner_map = self._owners
        if self.n_live > 1:
            for shard_id in self._live_ids():
                routes, direct = self._routes[shard_id]
                sids = sorted({routes[peer] for peer in direct})
                fwd = {
                    dest: sid
                    for dest, sid in routes.items()
                    if dest not in direct
                }
                self.enclaves[shard_id].ecall(
                    "broadcast_policies", sids, self.batch, fwd
                )
            self.pump()
        for shard_id in self._live_ids():
            self.enclaves[shard_id].ecall("compute_partition")
        for shard_id in self._live_ids():
            routes, direct = self._routes[shard_id]
            self.enclaves[shard_id].ecall(
                "send_slices", owner_map, routes, self.batch, None, direct
            )
        self.pump()
        self._sealed = True

    @property
    def n_live(self) -> int:
        return len(self.enclaves) - len(self.dead)

    # -- steady-state serving ------------------------------------------------

    def serve_batch(
        self, front_shard: int, requests: List[Tuple[int, int, str]]
    ) -> Dict[int, bytes]:
        """Serve ``(req_id, asn, op)`` through one front shard.

        Returns req_id -> encoded routes message for every request —
        owned ones directly, cross-shard ones after the query/reply
        record exchange.  Raises :class:`ShardError` if the front or an
        owner shard is dead (callers turn that into failover).
        """
        if front_shard in self.dead:
            raise ShardError(f"front shard {front_shard} is dead")
        owner_map = self._owners
        for _req_id, asn, _op in requests:
            owner = owner_map.get(asn)
            if owner is None or owner in self.dead:
                raise ShardError(f"owner shard for AS{asn} is dead")

        front = self.enclaves[front_shard]
        served: Dict[int, bytes] = {}
        route_reqs = [
            (req_id, asn) for req_id, asn, op in requests if op == "route_request"
        ]
        re_regs = [
            (req_id, asn) for req_id, asn, op in requests if op == "re_register"
        ]

        if route_reqs:
            routes, direct = self._routes[front_shard]
            served.update(
                front.ecall(
                    "front_requests",
                    route_reqs,
                    owner_map,
                    routes,
                    self.batch,
                    direct,
                )
            )

        # Re-registrations hit the owner shard directly (the client
        # re-attests to the shard that owns its AS — fronting the
        # policy through a non-owner would leak it to that shard).
        by_owner: Dict[int, List[Tuple[int, int]]] = {}
        for req_id, asn in re_regs:
            by_owner.setdefault(owner_map[asn], []).append((req_id, asn))
        for owner, items in sorted(by_owner.items()):
            enclave = self.enclaves[owner]
            batch_calls = [
                ("re_register", (asn, self.policies[asn].encode()), {})
                for _req_id, asn in items
            ]
            results = enclave.ecall_batch(batch_calls)
            for (req_id, _asn), encoded in zip(items, results):
                served[req_id] = encoded

        pending = [req_id for req_id, _asn in route_reqs if req_id not in served]
        if pending:
            self.pump()
            replies = front.ecall("take_replies", pending)
            served.update(replies)
        missing = [
            req_id for req_id, _asn, _op in requests if req_id not in served
        ]
        if missing:
            raise ShardError(f"requests {missing} got no reply")
        return served

    # -- failover ------------------------------------------------------------

    def maybe_crash(self, shard_id: int) -> bool:
        """Consult the active fault plan for a crash of this shard."""
        plan = faults.current_plan()
        if plan is None or shard_id in self.dead:
            return False
        rule = plan.decide(faults.SHARD_CRASH, f"shard:{shard_id}")
        if rule is None:
            return False
        self.crash_shard(shard_id)
        return True

    def crash_shard(self, shard_id: int) -> List[int]:
        """The OS kills one shard enclave (DoS is in the threat model).

        Returns the re-homed ASNs after recovery.  With a single live
        shard remaining... there is nowhere to re-home: the deployment
        is lost and a :class:`ShardError` says so.
        """
        if shard_id in self.dead:
            raise ShardError(f"shard {shard_id} is already dead")
        enclave = self.enclaves[shard_id]
        rehomed = (
            list(enclave.ecall("owned_ases")) if self._sealed else []
        )
        self.platforms[shard_id].destroy_enclave(enclave)
        self.dead.add(shard_id)
        obs.instant("shard_crash", shard=shard_id, rehomed=len(rehomed))
        if self.n_live == 0:
            raise ShardError("last controller shard crashed; no survivors")
        self.ring.remove_shard(shard_id)
        region = self.region_of_shard[shard_id]
        survivors = [
            s for s in self._live_ids() if self.region_of_shard[s] == region
        ]
        if survivors and shard_id < min(survivors):
            # The head died: its successor (new lowest live id) must
            # hold sessions to every other region head before routes
            # can be re-pushed.
            new_head = min(survivors)
            for other in self._heads():
                if other == new_head:
                    continue
                pair = (min(new_head, other), max(new_head, other))
                if pair not in self.sessions:
                    self._establish(*pair)
        self._push_routes()
        if not self._sealed:
            return rehomed
        return self._recover(rehomed)

    def _recover(self, rehomed: List[int]) -> List[int]:
        """Re-home the dead shard's ASes onto the survivors.

        Clients re-register (byte-identical policies) with the new
        owners; new owners recompute the lost partition for inherited
        origins; every survivor replays its retained slices for the
        re-homed ASes.  Afterwards every request is serveable again —
        the fault tests pin that nothing is silently lost.
        """
        owner_map = self._owners
        by_owner: Dict[int, List[int]] = {}
        for asn in rehomed:
            by_owner.setdefault(owner_map[asn], []).append(asn)
        for owner, asns in sorted(by_owner.items()):
            enclave = self.enclaves[owner]
            calls = [
                ("adopt_as", (asn, self.policies[asn].encode()), {})
                for asn in sorted(asns)
            ]
            enclave.ecall_batch(calls)
            enclave.ecall("compute_extra", sorted(asns))
        only = sorted(rehomed)
        for shard_id in self._live_ids():
            routes, direct = self._routes[shard_id]
            self.enclaves[shard_id].ecall(
                "send_slices", owner_map, routes, self.batch, only, direct
            )
        self.pump()
        return only

    # -- reporting helpers ---------------------------------------------------

    def shard_stats(self) -> Dict[int, Dict[str, int]]:
        return {
            shard_id: self.enclaves[shard_id].ecall("shard_stats")
            for shard_id in self._live_ids()
        }

    def accountants(self):
        return {
            shard_id: platform.accountant
            for shard_id, platform in sorted(self.platforms.items())
        }
