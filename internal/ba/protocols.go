package ba

import (
	"fmt"

	"proxcensus/internal/proxcensus"
	"proxcensus/internal/quorum"
	"proxcensus/internal/sim"
)

// Protocol is a fully instantiated fixed-round BA construction: one
// machine per party plus the execution's round budget. Feed it to
// sim.Run (or the harness) together with an adversary.
type Protocol struct {
	// Name identifies the construction in reports.
	Name string
	// N, T mirror the setup.
	N, T int
	// Rounds is the fixed round budget.
	Rounds int
	// Machines holds one state machine per party, indexed by ID.
	Machines []sim.Machine
}

// Reset rewinds a protocol built by NewMultivaluedOneShot or
// NewMultivaluedPayloadOneShot to what its constructor leaves, with
// inputs — a []Value or a [][]byte, one per party, as the constructor
// took — in place of the constructor's, so the same machines run
// another execution, keeping their scratch instead of being rebuilt.
// It holds after any execution, finished or cut short at any round.
// Nil inputs release instead: the machines drop every input, candidate
// and delivered payload they hold, so an idle protocol pins none of
// them, and it must be Reset with inputs before it runs again. Bytes an
// execution decided are never reused. Other protocols have no reset
// path and return an error, as do inputs of the wrong type or length.
func (p *Protocol) Reset(inputs any) error {
	var err error
	switch in := inputs.(type) {
	case []Value:
		err = checkLen(len(in), p.N)
	case [][]byte:
		if err = checkLen(len(in), p.N); err == nil {
			err = checkPayloadInputs(in)
		}
	}
	if err != nil {
		return err
	}
	for i, m := range p.Machines {
		r, ok := m.(resetter)
		if !ok || !r.reset(i, inputs) {
			return fmt.Errorf("ba: %s cannot be reset with %T inputs", p.Name, inputs)
		}
	}
	return nil
}

// resetter is a party machine Protocol.Reset can rewind: reset(i,
// inputs) takes party i's input from inputs, or none from nil, and
// reports false, changing nothing, for inputs of another domain.
type resetter interface {
	reset(i int, inputs any) bool
}

// Coin domains: the prefix of the instance message each protocol's
// threshold coin signs and verifies its shares under.
const (
	OneShotCoinDomain = "oneshot"
	HalfCoinDomain    = "half-n2"
	// MultivaluedCoinDomain is shared by both value domains of the
	// t < n/3 multivalued protocol, digest and payload alike.
	MultivaluedCoinDomain = "mv-oneshot"
)

// OneShotRounds returns the round budget κ+1 of the t < n/3 one-shot
// protocol (Corollary 2).
func OneShotRounds(kappa int) int { return kappa + 1 }

// NewOneShot builds the paper's headline protocol (Corollary 2, case
// t < n/3): a single generalized iteration with s = 2^κ+1 slots —
// Prox_{2^κ+1} in κ rounds via echo expansion, then ONE (2^κ)-valued
// coin flip and the extraction cut. Error probability 1/(s-1) = 2^{-κ};
// total κ+1 rounds versus 2κ for fixed-round Feldman-Micali.
func NewOneShot(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	if err := checkExpandInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: one-shot protocol needs t < n/3, got n=%d t=%d", setup.N, setup.T)
	}
	slots := proxcensus.ExpandSlots(kappa)
	comps := setup.CoinComponents(slots-1, OneShotCoinDomain)
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		machines[i] = NewIterMachine(IterConfig{
			Slots:      slots,
			ProxRounds: kappa,
			Prox:       proxcensus.NewExpandMachine(setup.N, setup.T, kappa, inputs[i]),
			Coin:       comps[i],
		})
	}
	return &Protocol{
		Name: "oneshot-n3", N: setup.N, T: setup.T,
		Rounds: OneShotRounds(kappa), Machines: machines,
	}, nil
}

// FMRounds returns the round budget 2κ of fixed-round Feldman-Micali.
func FMRounds(kappa int) int { return 2 * kappa }

// NewFM builds the fixed-round Feldman-Micali baseline for t < n/3
// (Section 3.1): κ iterations, each a 1-round Prox_3 (crusader
// agreement) followed by a dedicated binary coin round. Per-iteration
// failure 1/2, so 2κ rounds reach error 2^{-κ}.
func NewFM(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateThird(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: FM baseline needs t < n/3, got n=%d t=%d", setup.N, setup.T)
	}
	comps := setup.CoinComponents(2, "fm")
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		machines[i] = NewIterChain(kappa, 2, inputs[i], func(iter int, in Value) *IterMachine {
			return NewIterMachine(IterConfig{
				Slots:      3,
				ProxRounds: 1,
				Prox:       proxcensus.NewExpandMachine(setup.N, setup.T, 1, in),
				Coin:       comps[party],
				Instance:   iter,
			})
		})
	}
	return &Protocol{
		Name: "fm-n3", N: setup.N, T: setup.T,
		Rounds: FMRounds(kappa), Machines: machines,
	}, nil
}

// HalfRounds returns the round budget 3·⌈κ/2⌉ ≈ 3κ/2 of the t < n/2
// iterated protocol.
func HalfRounds(kappa int) int { return 3 * ((kappa + 1) / 2) }

// NewHalf builds the paper's t < n/2 protocol (Corollary 2): ⌈κ/2⌉
// iterations of the 3-round Prox_5 (the linear Prox_{2r-1} with r=3)
// with a 4-valued coin run in parallel to the third round — sound
// because the honest slot pair is fixed after round 2. Per-iteration
// failure 1/4, so 3κ/2 rounds reach error 2^{-κ}, versus 2κ for the
// Micali-Vaikuntanathan baseline.
func NewHalf(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return newIteratedHalf(setup, kappa, 5, true, HalfCoinDomain, inputs)
}

// IteratedHalfRounds returns the round budget of NewIteratedHalf for a
// given slot count: iterations × r rounds with the coin in parallel.
func IteratedHalfRounds(kappa, slots int) int {
	return halfIterations(kappa, slots) * ((slots + 1) / 2)
}

// halfIterations returns how many s-slot iterations reach error 2^-κ:
// per-iteration failure is 1/(s-1), so k = ⌈κ / log2(s-1)⌉.
func halfIterations(kappa, slots int) int {
	bits := 0
	for v := slots - 1; v > 1; v >>= 1 {
		bits++
	}
	return (kappa + bits - 1) / bits
}

// NewIteratedHalf generalizes NewHalf to any odd slot count s = 2r-1
// built on the r-round linear Proxcensus — the ablation of footnote 6
// (the paper fixes s=5 as optimal). The coin runs in parallel with the
// last Proxcensus round.
func NewIteratedHalf(setup *Setup, kappa, slots int, inputs []Value) (*Protocol, error) {
	name := fmt.Sprintf("half-n2-s%d", slots)
	return newIteratedHalf(setup, kappa, slots, true, name, inputs)
}

func newIteratedHalf(setup *Setup, kappa, slots int, parallel bool, name string, inputs []Value) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateHalf(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: half-regime protocol needs t < n/2, got n=%d t=%d", setup.N, setup.T)
	}
	if slots < 3 || slots%2 == 0 {
		return nil, fmt.Errorf("ba: iterated half protocol needs odd slots >= 3, got %d", slots)
	}
	r := (slots + 1) / 2 // linear protocol rounds for 2r-1 slots
	iters := halfIterations(kappa, slots)
	comps := setup.CoinComponents(slots-1, name)
	roundsPerIter := IterConfig{ProxRounds: r, Parallel: parallel}.Rounds()
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		machines[i] = NewIterChain(iters, roundsPerIter, inputs[i], func(iter int, in Value) *IterMachine {
			return NewIterMachine(IterConfig{
				Slots:      slots,
				ProxRounds: r,
				Prox:       proxcensus.NewLinearMachine(setup.N, setup.T, r, in, setup.ProxPK, setup.ProxSKs[party]),
				Coin:       comps[party],
				Instance:   iter,
				Parallel:   parallel,
			})
		})
	}
	return &Protocol{
		Name: name, N: setup.N, T: setup.T,
		Rounds: iters * roundsPerIter, Machines: machines,
	}, nil
}

// MVRounds returns the round budget 2κ of the Micali-Vaikuntanathan
// style baseline.
func MVRounds(kappa int) int { return 2 * kappa }

// NewMV builds the t < n/2 baseline in the style of Micali and
// Vaikuntanathan [18]: κ iterations of a 2-round graded consensus (the
// linear Prox_{2r-1} with r=2, i.e. Prox_3) with the binary coin run in
// parallel to its second round. Per-iteration failure 1/2: 2κ rounds
// for error 2^{-κ}.
func NewMV(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return newMV(setup, kappa, inputs, false)
}

// NewMVCert builds the MV baseline in the PKI wire format: certificates
// travel as explicit share sets rather than combined threshold
// signatures, reproducing MV's O(κn³) communication (Section 3.5 notes
// the paper's protocol saves a factor of n against it).
func NewMVCert(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return newMV(setup, kappa, inputs, true)
}

func newMV(setup *Setup, kappa int, inputs []Value, explicitCerts bool) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateHalf(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: MV baseline needs t < n/2, got n=%d t=%d", setup.N, setup.T)
	}
	name := "mv-n2"
	if explicitCerts {
		name = "mv-n2-pki"
	}
	comps := setup.CoinComponents(2, name)
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		machines[i] = NewIterChain(kappa, 2, inputs[i], func(iter int, in Value) *IterMachine {
			prox := proxcensus.NewLinearMachine(setup.N, setup.T, 2, in, setup.ProxPK, setup.ProxSKs[party])
			if explicitCerts {
				prox.UseExplicitCertificates()
			}
			return NewIterMachine(IterConfig{
				Slots:      3,
				ProxRounds: 2,
				Prox:       prox,
				Coin:       comps[party],
				Instance:   iter,
				Parallel:   true,
			})
		})
	}
	return &Protocol{
		Name: name, N: setup.N, T: setup.T,
		Rounds: MVRounds(kappa), Machines: machines,
	}, nil
}

// checkInputs validates common constructor arguments.
func checkInputs[T any](setup *Setup, kappa int, inputs []T) error {
	if setup == nil {
		return fmt.Errorf("ba: nil setup")
	}
	if kappa < 1 {
		return fmt.Errorf("ba: kappa must be >= 1, got %d", kappa)
	}
	return checkLen(len(inputs), setup.N)
}

// checkExpandInputs is checkInputs for the families whose core is
// Prox_{2^κ+1}: κ past proxcensus.MaxExpandRounds would overflow the
// slot count.
func checkExpandInputs[T any](setup *Setup, kappa int, inputs []T) error {
	if kappa > proxcensus.MaxExpandRounds {
		return fmt.Errorf("ba: kappa must be <= %d (2^kappa+1 slots must fit an int), got %d", proxcensus.MaxExpandRounds, kappa)
	}
	return checkInputs(setup, kappa, inputs)
}

// checkLen rejects an input count other than n.
func checkLen(inputs, n int) error {
	if inputs != n {
		return fmt.Errorf("ba: %d inputs for n=%d", inputs, n)
	}
	return nil
}

// QuadHalfRounds returns the round budget of NewIteratedHalfQuad: the
// quadratic Proxcensus contributes log2(slots-1) error bits per
// iteration of r+1 rounds (the coin gets a dedicated round — unlike
// Prox_5, the quadratic protocol's slot pair is not provably fixed
// before its last round).
func QuadHalfRounds(kappa, proxRounds int) int {
	slots := proxcensus.QuadSlots(proxRounds)
	return halfIterations(kappa, slots) * (proxRounds + 1)
}

// NewIteratedHalfQuad builds the iterated t < n/2 protocol on the
// quadratic Proxcensus of Appendix B (3+(r-3)(r-2) slots in r rounds).
// This extends the footnote-6 ablation across both Proxcensus families:
// despite the quadratic slot growth, the per-iteration error gain is
// only log2(slots-1), so no round budget beats the 3-round Prox_5
// (see ExperimentSlotChoice).
func NewIteratedHalfQuad(setup *Setup, kappa, proxRounds int, inputs []Value) (*Protocol, error) {
	if err := checkInputs(setup, kappa, inputs); err != nil {
		return nil, err
	}
	if !quorum.TolerateHalf(setup.N, setup.T) {
		return nil, fmt.Errorf("ba: half-regime protocol needs t < n/2, got n=%d t=%d", setup.N, setup.T)
	}
	if proxRounds < 3 {
		return nil, fmt.Errorf("ba: quadratic Proxcensus needs >= 3 rounds, got %d", proxRounds)
	}
	slots := proxcensus.QuadSlots(proxRounds)
	name := fmt.Sprintf("half-n2-quad-r%d", proxRounds)
	iters := halfIterations(kappa, slots)
	comps := setup.CoinComponents(slots-1, name)
	roundsPerIter := proxRounds + 1
	machines := make([]sim.Machine, setup.N)
	for i := range machines {
		party := i
		machines[i] = NewIterChain(iters, roundsPerIter, inputs[i], func(iter int, in Value) *IterMachine {
			return NewIterMachine(IterConfig{
				Slots:      slots,
				ProxRounds: proxRounds,
				Prox:       proxcensus.NewQuadMachine(setup.N, setup.T, proxRounds, in, setup.ProxPK, setup.ProxSKs[party]),
				Coin:       comps[party],
				Instance:   iter,
			})
		})
	}
	return &Protocol{
		Name: name, N: setup.N, T: setup.T,
		Rounds: iters * roundsPerIter, Machines: machines,
	}, nil
}

// NewHalfSequentialCoin is the coin-parallelism ablation of NewHalf:
// the same ⌈κ/2⌉ iterations of Prox_5, but with a dedicated coin round
// after the third Proxcensus round (4 rounds per iteration, 2κ total).
// It isolates the round saving of running the coin in parallel — the
// error probability is unchanged because the honest slot pair is fixed
// after round 2 either way.
func NewHalfSequentialCoin(setup *Setup, kappa int, inputs []Value) (*Protocol, error) {
	return newIteratedHalf(setup, kappa, 5, false, "half-n2-seqcoin", inputs)
}

// Run executes the protocol against adv and returns the simulation
// result.
func (p *Protocol) Run(adv sim.Adversary, seed int64) (*sim.Result, error) {
	return sim.Run(sim.Config{N: p.N, T: p.T, Rounds: p.Rounds, Seed: seed}, p.Machines, adv)
}

// RunTraced executes the protocol like Run with tr observing the
// execution — e.g. a sim.Recorder, whose fingerprint must be identical
// across runs with the same setup, inputs and seed (the determinism
// invariant the seed-replay regression test enforces).
func (p *Protocol) RunTraced(adv sim.Adversary, seed int64, tr sim.Tracer) (*sim.Result, error) {
	return sim.Run(sim.Config{N: p.N, T: p.T, Rounds: p.Rounds, Seed: seed, Tracer: tr}, p.Machines, adv)
}

// Decisions extracts the honest parties' BA outputs from a simulation
// result, ordered by party ID.
func Decisions(res *sim.Result) []Value {
	outs := res.HonestOutputs()
	vals := make([]Value, 0, len(outs))
	for _, o := range outs {
		if v, ok := o.(Value); ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// DecisionsFromOutputs extracts BA decisions from raw machine outputs
// as the TCP transport and chaos harness return them, skipping nil
// slots (crashed or dead nodes) and non-Value outputs.
func DecisionsFromOutputs(outputs []any) []Value {
	vals := make([]Value, 0, len(outputs))
	for _, o := range outputs {
		if v, ok := o.(Value); ok {
			vals = append(vals, v)
		}
	}
	return vals
}
