"""Serving-set selection: cooperation matrix, selection algorithms, MDP env.

Every algorithm selects from the candidate APs, those at or above the
outage threshold beta0, and ranks a UE's candidates by descending beta with
ties toward the lowest AP index. Besides the snapshot and the constraints,
cuc reads the topology's cluster grid and mdp-greedy its round budget. The
rules that walk UEs do so in ascending UE id, which matters for the
load-capped and eviction-based algorithms (documented order dependence).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSnapshot

#: sentinel action: end the current UE's round without connecting an AP
SKIP = -1


@dataclass(frozen=True)
class CooperationMatrix:
    """Binary M x K serving matrix; d[m, k] = 1 iff AP m serves UE k."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d)
        if d.ndim != 2:
            raise ValueError("d must be an M x K matrix")
        if not np.all((d == 0) | (d == 1)):
            raise ValueError("d entries must be 0/1")
        d = d.astype(np.int8)
        object.__setattr__(self, "d", d)
        d.setflags(write=False)

    @property
    def g_k(self) -> np.ndarray:
        """Serving-set size per UE."""
        return self.d.sum(axis=0)

    @property
    def w_m(self) -> np.ndarray:
        """Served-UE count per AP."""
        return self.d.sum(axis=1)


@dataclass(frozen=True)
class SelectionConstraints:
    """Caps and thresholds shared by the selection algorithms.

    delta is the serving-set SNR fraction in (0, 1]; beta0 the linear outage
    SNR below which an AP is never a candidate; e_best the number of anchor
    APs for cluster-based selection.
    """

    g_max: int
    tau_p: int = 10
    delta: float = 0.95
    e_best: int = 1
    beta0: float = 0.01
    allow_tau_p_equality: bool = False

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError("delta must lie in (0, 1]")
        if self.g_max < 1 or self.tau_p < 0 or self.e_best < 1:
            raise ValueError("g_max and e_best must be >= 1, tau_p >= 0")


def candidate_beta(snapshot: ChannelSnapshot, constraints: SelectionConstraints) -> np.ndarray:
    """beta with below-outage entries zeroed; all algorithms select from this."""
    return np.where(snapshot.beta >= constraints.beta0, snapshot.beta, 0.0)


def simplified_sinr_all(d: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Vectorized simplified SINR per UE column."""
    served = np.einsum("mk,mk->k", np.asarray(d, dtype=float), beta)
    total = beta.sum(axis=0)
    return served / (total - served + 1.0)


def jain_index(values) -> float:
    """Jain's fairness index (sum v)^2 / (K sum v^2); all-zero input -> 1."""
    v = np.asarray(values, dtype=float)
    if v.size < 1:
        raise ValueError("need at least one value")
    ssq = float(np.dot(v, v))
    if ssq == 0.0:
        return 1.0
    return float(v.sum()) ** 2 / (v.size * ssq)


def _ranked(snapshot: ChannelSnapshot, constraints: SelectionConstraints):
    """(beta, order, ranked_beta): the candidate beta, each UE's stable
    descending-beta AP order (column k for UE k), and beta in that order."""
    beta = candidate_beta(snapshot, constraints)
    order = np.argsort(-beta, axis=0, kind="stable")
    return beta, order, np.take_along_axis(beta, order, axis=0)


def _fill_in_rank_order(order: np.ndarray, ranked: np.ndarray, cap: int, take: int):
    """UE by UE in ascending id, connect the first ``take`` candidate APs in
    rank order whose load is below ``cap``; returns (d, AP loads w).

    An AP's load depends on the UEs before, so this walks UEs in Python.
    """
    m_aps, k_ues = order.shape
    d = np.zeros((m_aps, k_ues), dtype=np.int8)
    w = np.zeros(m_aps, dtype=int)
    for k in range(k_ues):
        col = order[:, k]
        chosen = col[(ranked[:, k] > 0.0) & (w[col] < cap)][:take]
        d[chosen, k] = 1
        w[chosen] += 1
    return d, w


def select_unifsrv_heu(
    snapshot: ChannelSnapshot, constraints: SelectionConstraints
) -> CooperationMatrix:
    """Fairness-threshold greedy serving-set growth.

    Every UE first connects its best candidate AP that still has spare load
    (the guard keeps the load cap hard even when many UEs share one best
    AP). Then, walking the per-UE AP ranks m = 2..M, a threshold alpha is
    set at the ascending-sorted simplified SINR of index ceil((1 - Phi) * K)
    (clamped to [1, K], Phi the current fairness index); only UEs strictly
    below alpha may add their rank-m AP, subject to the AP load cap tau_p,
    the serving-set cap g_max, and the delta SNR-fraction stop rule.
    Returned sets always satisfy both caps; the load check uses strict <
    unless allow_tau_p_equality is set.

    AP loads, serving-set sizes, served SNRs and simplified SINRs are kept
    per UE and updated only for a UE whose serving set grew, so a rank
    costs one vector pass plus one load check per eligible UE. The rank walk
    stops early once no UE can grow any more: each has reached g_max, the
    delta fraction, or its last candidate AP. None of these can reverse.
    """
    beta, order, ranked_beta = _ranked(snapshot, constraints)
    m_aps, k_ues = beta.shape
    total = beta.sum(axis=0)
    load_cap = constraints.tau_p + 1 if constraints.allow_tau_p_equality else constraints.tau_p
    ues = np.arange(k_ues)

    # initial connection: best candidate AP with spare load, so the load cap
    # holds even when many UEs share one best AP
    d, w = _fill_in_rank_order(order, ranked_beta, load_cap, 1)
    g = d.sum(axis=0)
    served = np.einsum("mk,mk->k", d.astype(float), beta)
    s = served / (total - served + 1.0)

    for rank in range(1, m_aps):
        aps = order[rank]
        can_grow = (
            (ranked_beta[rank] > 0.0) & (g < constraints.g_max) & (served < constraints.delta * total)
        )
        if not can_grow.any():
            break
        phi = jain_index(s)
        idx = int(np.ceil((1.0 - phi) * k_ues))
        idx = min(max(idx, 1), k_ues)
        alpha = np.sort(s)[idx - 1]
        # a UE whose initial connection fell back past a full AP may reach
        # that AP again here; it is already served there
        eligible = can_grow & (s < alpha) & (d[aps, ues] == 0)
        # earlier UEs at this rank fill APs first, so the load check walks
        # in ascending UE id
        for k in np.flatnonzero(eligible):
            ap = aps[k]
            if w[ap] < load_cap:
                d[ap, k] = 1
                w[ap] += 1
                g[k] += 1
                served[k] += beta[ap, k]
                s[k] = served[k] / (total[k] - served[k] + 1.0)
    return CooperationMatrix(d=d)


def select_puc(snapshot: ChannelSnapshot, constraints: SelectionConstraints) -> CooperationMatrix:
    """Unconstrained best-SNR growth until the delta SNR fraction is reached.

    No load or serving-set caps apply; serving sets can violate both. A UE
    keeps each candidate rank whose running served sum before it is below
    delta times its total. Both sums add in rank order.
    """
    beta, order, ranked = _ranked(snapshot, constraints)
    before = np.zeros_like(ranked)
    np.cumsum(ranked[:-1], axis=0, out=before[1:])
    total = before[-1] + ranked[-1]
    keep = (ranked > 0.0) & (before < constraints.delta * total)
    d = np.zeros(beta.shape, dtype=np.int8)
    np.put_along_axis(d, order, keep, axis=0)
    return CooperationMatrix(d=d)


def select_puc_const(
    snapshot: ChannelSnapshot, constraints: SelectionConstraints
) -> CooperationMatrix:
    """Best-SNR growth with per-AP load enforced by weakest-UE eviction.

    Every UE attempts every candidate AP in descending beta (no stop rule); a
    full AP swaps in the newcomer only if the newcomer's beta beats the worst
    beta among the AP's current UEs. The result always satisfies the load cap.
    """
    beta, order, ranked = _ranked(snapshot, constraints)
    rows = beta.tolist()
    # each AP's served UEs in ascending id: UEs arrive in ascending id, so an
    # append keeps the order, and min takes the first UE of least beta
    served = [[] for _ in rows]
    for k in range(beta.shape[1]):
        for ap in order[ranked[:, k] > 0.0, k].tolist():
            ues = served[ap]
            if len(ues) < constraints.tau_p:
                ues.append(k)
            elif ues:
                worst = min(ues, key=rows[ap].__getitem__)
                if rows[ap][worst] < rows[ap][k]:
                    ues.remove(worst)
                    ues.append(k)
    d = np.zeros(beta.shape, dtype=np.int8)
    for ap, ues in enumerate(served):
        d[ap, ues] = 1
    return CooperationMatrix(d=d)


def select_cuc(
    snapshot: ChannelSnapshot, topo, constraints: SelectionConstraints
) -> CooperationMatrix:
    """Serve each UE with the full clusters of its e_best strongest APs.

    An AP serves a UE when its cluster holds one of the UE's first e_best
    candidate APs in rank order.
    """
    if topo is None or topo.cluster_of_ap is None:
        raise ValueError("CUC requires a topology with a built cluster grid")
    beta, order, ranked = _ranked(snapshot, constraints)
    rank, ue = np.nonzero(ranked[: constraints.e_best] > 0.0)
    hit = np.zeros((topo.n_clusters, beta.shape[1]), dtype=bool)
    hit[topo.cluster_of_ap[order[rank, ue]], ue] = True
    return CooperationMatrix(d=hit[topo.cluster_of_ap].astype(np.int8))


def select_small_cell(snapshot: ChannelSnapshot, constraints: SelectionConstraints) -> CooperationMatrix:
    """One AP per UE: the best-SNR candidate (lowest index on ties)."""
    beta = candidate_beta(snapshot, constraints)
    best, ues = beta.argmax(axis=0), np.arange(beta.shape[1])
    d = np.zeros(beta.shape, dtype=np.int8)
    d[best, ues] = beta[best, ues] > 0.0
    return CooperationMatrix(d=d)


def select_full_cf(snapshot: ChannelSnapshot, constraints: SelectionConstraints) -> CooperationMatrix:
    """Every candidate AP serves every UE (the unscaled upper bound)."""
    return CooperationMatrix(d=(candidate_beta(snapshot, constraints) > 0.0).astype(np.int8))


@dataclass(frozen=True)
class MdpState:
    """Per-step observation: serving-set-masked beta plus serving-AP loads.

    ``load_head`` lists the load of each currently serving AP in connection
    order, zero-padded to g_max entries.
    """

    masked_beta: np.ndarray
    load_head: np.ndarray


@dataclass
class RewardWeights:
    step: float = 1.0
    round: float = 10.0
    episode: float = 2000.0


class ApSelectionEnv:
    """Sequential per-UE AP-connection environment with shaped rewards.

    UEs are processed in ascending id. Each step connects the chosen
    candidate AP to the current UE, rewarding the step with
    step_weight * beta / beta_max, or -1 when the chosen AP is already at
    the load cap (the connection is then refused, so the cap always holds).
    A UE's round ends after ``round_budget`` (at least 1) steps, when its
    serving set reaches g_max, or on the SKIP action; the round reward
    scales with how small the serving set stayed. The episode reward is the fairness-scaled
    sum of simplified SINRs over all UEs. Single-owner mutable state: use
    one environment per worker.
    """

    def __init__(
        self,
        snapshot: ChannelSnapshot,
        constraints: SelectionConstraints,
        weights: RewardWeights | None = None,
        round_budget: int = 100,
    ):
        if round_budget < 1:
            raise ValueError(f"round_budget must be at least 1, got {round_budget}")
        self.beta = candidate_beta(snapshot, constraints)
        self.constraints = constraints
        self.weights = weights or RewardWeights()
        self.round_budget = round_budget
        self.m_aps, self.k_ues = self.beta.shape
        self.reset()

    def reset(self) -> MdpState:
        self.d = np.zeros((self.m_aps, self.k_ues), dtype=np.int8)
        self.current_ue = 0
        self.steps_in_round = 0
        self.connect_order: list[int] = []
        self.done = self.k_ues == 0
        return self._state()

    def action_space(self, ue: int | None = None) -> np.ndarray:
        """Candidate AP indices (beta at or above the outage threshold)."""
        k = self.current_ue if ue is None else ue
        return np.flatnonzero(self.beta[:, k] > 0.0)

    def _state(self) -> MdpState:
        k = min(self.current_ue, self.k_ues - 1)
        masked = self.d[:, k] * self.beta[:, k]
        loads = np.zeros(self.constraints.g_max, dtype=int)
        w = self.d.sum(axis=1)
        for i, ap in enumerate(self.connect_order[: self.constraints.g_max]):
            loads[i] = w[ap]
        return MdpState(masked_beta=masked, load_head=loads)

    def step(self, action: int):
        """Apply one connection action; returns (state, reward, done, info).

        info carries the reward components: r1 every step, r2 on the step
        that closes a round, r3 on the episode's final step.
        """
        if self.done:
            raise ValueError("episode finished; call reset()")
        k = self.current_ue
        info = {"r1": 0.0, "r2": 0.0, "r3": 0.0, "ue": k}
        space = self.action_space(k)
        round_over = False
        if action == SKIP:
            round_over = True
        else:
            if action not in space:
                raise ValueError(f"action {action} outside the action space of UE {k}")
            beta_max = float(self.beta[space, k].max())
            if int(self.d[action, :].sum()) >= self.constraints.tau_p:
                info["r1"] = -1.0
            else:
                info["r1"] = self.weights.step * float(self.beta[action, k]) / beta_max
                if not self.d[action, k]:
                    self.d[action, k] = 1
                    self.connect_order.append(action)
            self.steps_in_round += 1
            if (
                self.steps_in_round >= self.round_budget
                or int(self.d[:, k].sum()) >= self.constraints.g_max
            ):
                round_over = True

        if round_over:
            g = int(self.d[:, k].sum())
            info["r2"] = self.weights.round * (1.0 - g / self.m_aps)
            self.current_ue += 1
            self.steps_in_round = 0
            self.connect_order = []
            if self.current_ue >= self.k_ues:
                self.done = True
                s = simplified_sinr_all(self.d, self.beta)
                ssum = float(s.sum())
                ssq = float(np.dot(s, s))
                info["r3"] = 0.0 if ssq == 0.0 else self.weights.episode * ssum**3 / (self.k_ues * ssq)
        reward = info["r1"] + info["r2"] + info["r3"]
        return self._state(), reward, self.done, info

    def cooperation_matrix(self) -> CooperationMatrix:
        return CooperationMatrix(d=self.d.copy())


def greedy_policy(env: ApSelectionEnv, state: MdpState) -> int:
    """Pick the strongest not-yet-connected candidate AP with spare load.

    Returns SKIP when every admissible AP is connected or full. Deterministic:
    beta ties break toward the lowest AP index.
    """
    k = env.current_ue
    w = env.d.sum(axis=1)
    mask = (env.beta[:, k] > 0.0) & (env.d[:, k] == 0) & (w < env.constraints.tau_p)
    if not mask.any():
        return SKIP
    betas = np.where(mask, env.beta[:, k], -np.inf)
    return int(np.argmax(betas))


def run_episode(env: ApSelectionEnv, policy=greedy_policy):
    """Roll one full episode; returns (total return, CooperationMatrix, infos)."""
    state = env.reset()
    total = 0.0
    infos = []
    while not env.done:
        action = policy(env, state)
        state, reward, _, info = env.step(action)
        total += reward
        infos.append(info)
    return total, env.cooperation_matrix(), infos


def select_mdp_greedy(
    snapshot: ChannelSnapshot,
    constraints: SelectionConstraints,
    round_budget: int = 100,
) -> CooperationMatrix:
    """Serving sets of the greedy reference policy on the MDP env, in closed form.

    ``run_episode(ApSelectionEnv(...), greedy_policy)`` never picks a full or
    already-connected AP, and a UE's own connections change no other AP's
    load. So UE k, taken in ascending id, gets the first
    min(g_max, round_budget) APs of its stable descending-beta order that
    are candidates and below tau_p at the start of its round. This builds
    that D directly; no env step is taken and no reward is computed, since
    rewards never steer the greedy actions.
    """
    if round_budget < 1:
        raise ValueError(f"round_budget must be at least 1, got {round_budget}")
    _, order, ranked = _ranked(snapshot, constraints)
    d, _ = _fill_in_rank_order(order, ranked, constraints.tau_p, min(constraints.g_max, round_budget))
    return CooperationMatrix(d=d)


#: config keys of the selection algorithms; README describes each
ALGORITHMS = ("unifsrv-heu", "puc", "puc-const", "cuc", "small-cell", "full-cf", "mdp-greedy")


def run_algorithm(
    name: str,
    snapshot: ChannelSnapshot,
    constraints: SelectionConstraints,
    topo=None,
    mdp_round_budget: int = 100,
    mdp_weights: RewardWeights | None = None,
) -> CooperationMatrix:
    """Dispatch a selection algorithm by config key.

    ``mdp_weights`` is accepted for existing callers and not used: the
    rewards never steer the greedy rollout behind mdp-greedy.
    """
    if name == "unifsrv-heu":
        return select_unifsrv_heu(snapshot, constraints)
    if name == "puc":
        return select_puc(snapshot, constraints)
    if name == "puc-const":
        return select_puc_const(snapshot, constraints)
    if name == "cuc":
        return select_cuc(snapshot, topo, constraints)
    if name == "small-cell":
        return select_small_cell(snapshot, constraints)
    if name == "full-cf":
        return select_full_cf(snapshot, constraints)
    if name == "mdp-greedy":
        return select_mdp_greedy(snapshot, constraints, round_budget=mdp_round_budget)
    raise ValueError(f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}")
