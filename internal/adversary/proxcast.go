package adversary

import (
	"proxcensus/internal/crypto/sig"
	"proxcensus/internal/proxcensus"
	"proxcensus/internal/sim"
)

// Corrupted-dealer strategies against s-slot Proxcast (Appendix A).
// Each holds the dealer's secret key and signs with it, so every pair
// it sends is signature-valid: what it attacks is the grading, not the
// signature check.

// signedSet is the one-pair Proxcast set carrying the dealer's
// signature on z.
func signedSet(sk *sig.SecretKey, z proxcensus.Value) proxcensus.ProxcastSet {
	return proxcensus.ProxcastSet{Pairs: []proxcensus.ProxcastPair{{Z: z, Sig: sig.Sign(sk, proxcensus.ProxcastMessage(z))}}}
}

// toAll addresses one freshly signed set on z from `from` to every party.
func toAll(env *sim.Env, from sim.PartyID, sk *sig.SecretKey, z proxcensus.Value) []sim.Message {
	msgs := make([]sim.Message, 0, env.N())
	for to := 0; to < env.N(); to++ {
		msgs = append(msgs, sim.Message{From: from, To: to, Payload: signedSet(sk, z)})
	}
	return msgs
}

// EquivocatingDealer corrupts the dealer, which in round 1 signs 0 for
// the lower half of the parties and 1 for the upper half: everyone
// holds both signatures by round 2.
func EquivocatingDealer(dealer sim.PartyID, sk *sig.SecretKey) sim.Adversary {
	return &Func{
		StrategyName: "equivocating-dealer",
		InitFunc:     func(env *sim.Env) { env.Corrupt(dealer) },
		ActFunc: func(round int, _ []sim.Message, env *sim.Env) []sim.Message {
			if round != 1 {
				return nil
			}
			var msgs []sim.Message
			for to := 0; to < env.N(); to++ {
				v := 0
				if to >= env.N()/2 {
					v = 1
				}
				msgs = append(msgs, sim.Message{From: dealer, To: to, Payload: signedSet(sk, v)})
			}
			return msgs
		},
	}
}

// WithholdingDealer corrupts the dealer, which in round 1 sends its
// signed value to favourite alone; honest forwarding must carry it to
// everyone else one round late.
func WithholdingDealer(dealer, favourite sim.PartyID, value proxcensus.Value, sk *sig.SecretKey) sim.Adversary {
	return &Func{
		StrategyName: "withholding-dealer",
		InitFunc:     func(env *sim.Env) { env.Corrupt(dealer) },
		ActFunc: func(round int, _ []sim.Message, env *sim.Env) []sim.Message {
			if round != 1 {
				return nil
			}
			return []sim.Message{{From: dealer, To: favourite, Payload: signedSet(sk, value)}}
		},
	}
}

// LateReleaseDealer corrupts the dealer and an accomplice. The dealer
// signs 0 for everyone in round 1, and the accomplice sends everyone
// the dealer's signature on 1 in round release, so the honest parties'
// singleton window is rounds 1..release-1. It needs t >= 2.
func LateReleaseDealer(dealer, accomplice sim.PartyID, release int, sk *sig.SecretKey) sim.Adversary {
	return &Func{
		StrategyName: "late-release-dealer",
		InitFunc: func(env *sim.Env) {
			env.Corrupt(dealer)
			env.Corrupt(accomplice)
		},
		ActFunc: func(round int, _ []sim.Message, env *sim.Env) []sim.Message {
			var msgs []sim.Message
			if round == 1 {
				msgs = append(msgs, toAll(env, dealer, sk, 0)...)
			}
			if round == release {
				msgs = append(msgs, toAll(env, accomplice, sk, 1)...)
			}
			return msgs
		},
	}
}
