package sim

import (
	"siot/internal/adversary"
	"siot/internal/agent"
	"siot/internal/core"
	"siot/internal/rng"
	"siot/internal/task"
)

// AttackConfig injects a trust-attack scenario into a population: a subset
// of the trustees runs an adversary.Attack model against the delegation
// rounds.
type AttackConfig struct {
	// Model is the attack every attacker runs; nil disables the adversary
	// subsystem entirely, making the engine's attack hook a guaranteed
	// no-op.
	Model adversary.Attack
	// Attackers is the number of trustees converted into attackers,
	// clamped to the trustee count; 0 disables the subsystem.
	Attackers int
}

// Enabled reports whether the scenario actually injects attackers.
func (c AttackConfig) Enabled() bool { return c.Model != nil && c.Attackers > 0 }

// installAttackers converts a deterministic subset of the trustees into
// attackers. It draws from a dedicated stream so populations built without
// an attack are bit-identical to those built before the adversary subsystem
// existed.
func (p *Population) installAttackers() {
	cfg := p.cfg.Attack
	n := cfg.Attackers
	if n > len(p.Trustees) {
		n = len(p.Trustees)
	}
	r := rng.New(p.cfg.Seed, "adversary", p.Net.Profile.Name)
	perm := r.Perm(len(p.Trustees))
	p.attackers = make(map[core.AgentID]bool, n)
	for _, i := range perm[:n] {
		id := p.Trustees[i]
		p.Agents[id].Kind = agent.KindDishonestTrustee
		p.Attackers = append(p.Attackers, id)
		p.attackers[id] = true
	}
	sortIDs(p.Attackers)
}

// IsAttacker reports whether id belongs to the attack ring.
func (p *Population) IsAttacker(id core.AgentID) bool { return p.attackers[id] }

// AttackEnabled reports whether this population carries an attack scenario.
func (p *Population) AttackEnabled() bool { return p.cfg.Attack.Enabled() && len(p.Attackers) > 0 }

// Forget makes every peer drop its memory of id — experience records and
// usage logs — as if the agent had left the network and a stranger had
// joined in its place. The agent's own store (its knowledge of others) is
// untouched: a whitewashing attacker keeps what it learned.
func (p *Population) Forget(id core.AgentID) {
	for _, a := range p.Agents {
		if a.ID != id {
			a.Store.Forget(id)
		}
	}
}

// attackContext builds the per-round hook context for the population's
// attack model. The label folds in the engine phase (but deliberately NOT
// the model name) so adversary streams never collide with engine or
// population streams while equivalent models stay bit-identical: a
// Collusion ring of size 1 draws exactly what its underlying solo attack
// would, and OnOff with Duty=1 draws exactly what the Honest null model
// would (nothing).
func (e *Engine) attackContext(label string, round int) adversary.Context {
	p := e.Pop
	return adversary.Context{
		Seed:  p.cfg.Seed,
		Label: "attack:" + label,
		Round: round,
		Ring:  p.Attackers,
	}
}

// recommendedTW gathers one-hop recommendations about candidate y on task
// tk from the recommenders in nbrs — the trustor's social neighbors,
// precomputed by Engine.init and including y itself (the self-claim
// channel of service discovery). Each recommender reports what the frozen
// view captured of its store — the z→y edge's records — except that
// attackers may forge their report through the attack model's
// recommendation hook. A recommender without a social edge to y holds no
// records about it (experience lives only along edges), so an EdgeIndex
// miss contributes nothing, exactly like an empty live store. Returns the
// mean report, or ok=false when nobody has anything to say. Reads only the
// view: safe inside the engine's lock-free compute phase. own is the
// caller's single-edge lens (RoundView.BestTW for the rounds, a model's
// EdgeMemo.ModelEdgeTW for the cross-model probe); it reads each honest
// recommender's z→y edge exactly as the trustor reads its own.
func (e *Engine) recommendedTW(view *core.RoundView, own func(int32) (float64, bool), ctx adversary.Context, nbrs []core.AgentID, y core.AgentID) (float64, bool) {
	p := e.Pop
	model := p.cfg.Attack.Model
	var sum float64
	n := 0
	for _, z := range nbrs {
		if p.attackers[z] {
			if tw, forged := model.ForgeRecommendation(ctx, z, y); forged {
				sum += tw
				n++
				continue
			}
		}
		if edge, ok := view.EdgeIndex(z, y); ok {
			if tw, ok := own(edge); ok {
				sum += tw
				n++
			}
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// applyAttack is the engine's pre-merge hook: between the parallel compute
// phase and the single-threaded merge, attackers rewrite the outcomes of
// the delegations they served this round (service sabotage). Each rewrite
// draws from the attacker's private (round, agent) sub-stream, so the pass
// is independent of iteration order and of how many trustors hit the same
// attacker.
func (e *Engine) applyAttack(ctx adversary.Context, acts []mutualityAction) {
	p := e.Pop
	model := p.cfg.Attack.Model
	for i := range acts {
		a := &acts[i]
		if !a.accepted || !p.attackers[a.trustee] {
			continue
		}
		if model.Active(ctx, a.trustee) {
			a.out = model.SabotageOutcome(ctx, a.trustee, a.out)
		}
	}
}

// applyChurn runs the post-merge identity-churn hook: attackers that shed
// their identity this round are forgotten by every peer, in ascending
// attacker order.
func (e *Engine) applyChurn(ctx adversary.Context) {
	p := e.Pop
	model := p.cfg.Attack.Model
	for _, a := range p.Attackers {
		if model.Churn(ctx, a) {
			p.Forget(a)
		}
	}
}

// PerceivedTrust measures how the trustors currently see their candidate
// trustees on task tk — through the same lens the delegation rounds use:
// own experience first, one-hop recommendations (attackers forging theirs)
// for strangers, the neutral prior when nobody knows anything. It returns
// the averages over honest trustee candidates and attacker candidates; the
// difference is the trust gap the resilience metrics track. Read-only: it
// publishes a probe epoch through the Rounds handle, reads the snapshot,
// and retires it (the live stores are untouched, so the snapshot is exact).
func (e *Engine) PerceivedTrust(round int, tk task.Task) (honest, attacker float64) {
	e.init()
	p := e.Pop
	var ctx adversary.Context
	enabled := p.AttackEnabled()
	if enabled {
		ctx = e.attackContext(e.mutualityLabel(), round)
	}
	e.Rounds.Publish(p.RoundView(e.workers(), epochArenas))
	ep := e.Rounds.Acquire()
	view := ep.View()
	own := func(edge int32) (float64, bool) { return view.BestTW(edge, tk) }
	var honestSum, attackerSum float64
	honestN, attackerN := 0, 0
	for i := range p.Trustors {
		for k, y := range e.trusteeNbrs[i] {
			tw := e.candidateTW(view, own, enabled, ctx, i, e.trusteeEdges[i][k], y)
			if p.attackers[y] {
				attackerSum += tw
				attackerN++
			} else {
				honestSum += tw
				honestN++
			}
		}
	}
	ep.Release()
	e.Rounds.Retire()
	if honestN > 0 {
		honest = honestSum / float64(honestN)
	}
	if attackerN > 0 {
		attacker = attackerSum / float64(attackerN)
	}
	return honest, attacker
}

// Perceived is one trust model's probe outcome: the mean perceived trust
// of honest trustee candidates and of attacker candidates (their
// difference is the model's trust gap).
type Perceived struct {
	Honest   float64
	Attacker float64
}

// PerceivedTrustModels is PerceivedTrust evaluated once per model in a
// single probe epoch: one capture, one shared EdgeMemo (trainable models
// fit on it exactly once), and every model scored over the same snapshot.
// Unlike PerceivedTrust — whose own-experience lens is the rounds'
// policy-agnostic RoundView.BestTW — each model here sees direct edges
// and one-hop recommendations through its own single-edge lens
// (EdgeMemo.ModelEdgeTW), so the cross-model resilience matrix compares
// how each model's own arithmetic perceives the attack. Attack forgeries
// are asserted numbers, identical under every model. Read-only, like
// PerceivedTrust.
func (e *Engine) PerceivedTrustModels(round int, tk task.Task, models []core.TrustModel) []Perceived {
	e.init()
	p := e.Pop
	var ctx adversary.Context
	enabled := p.AttackEnabled()
	if enabled {
		ctx = e.attackContext(e.mutualityLabel(), round)
	}
	e.Rounds.Publish(p.RoundView(e.workers(), epochArenas))
	ep := e.Rounds.Acquire()
	view := ep.View()
	memo := core.NewEdgeMemoPooled(view.TrustView, p.cfg.Update.Norm, e.workers(), epochArenas)
	probe := []task.Task{tk}
	out := make([]Perceived, len(models))
	for mi, m := range models {
		memo.RequireModel(m, probe)
		own := func(edge int32) (float64, bool) { return memo.ModelEdgeTW(m, edge, tk) }
		var honestSum, attackerSum float64
		honestN, attackerN := 0, 0
		for i := range p.Trustors {
			for k, y := range e.trusteeNbrs[i] {
				tw := e.candidateTW(view, own, enabled, ctx, i, e.trusteeEdges[i][k], y)
				if p.attackers[y] {
					attackerSum += tw
					attackerN++
				} else {
					honestSum += tw
					honestN++
				}
			}
		}
		if honestN > 0 {
			out[mi].Honest = honestSum / float64(honestN)
		}
		if attackerN > 0 {
			out[mi].Attacker = attackerSum / float64(attackerN)
		}
	}
	memo.Release()
	ep.Release()
	e.Rounds.Retire()
	return out
}
