// Package sim implements the paper's execution model (Section 2.1): a
// synchronous network of n parties with authenticated point-to-point
// channels, proceeding in lock-step rounds, attacked by a strongly
// rushing, adaptive Byzantine adversary corrupting up to t parties.
//
// A message sent by an honest party at the beginning of a round is
// delivered by the end of that round. In every round the adversary
// observes all messages sent by honest parties before choosing the
// corrupted parties' messages (rushing). It may additionally corrupt an
// honest party after seeing its round-r messages and replace or drop
// them within the same round (strongly rushing); this is implemented by
// discarding the victim's in-flight messages once it is corrupted
// mid-round and letting the adversary inject replacements.
//
// Protocols are deterministic per-party state machines (Machine); the
// engine (Run) drives all honest machines in lock-step and meters
// communication in messages, signatures and bytes.
package sim

// PartyID identifies a protocol participant, in [0, n).
type PartyID = int

// Broadcast, used as a Send destination, addresses a message to every
// party (including the sender itself; protocols count their own vote).
const Broadcast PartyID = -1

// Payload is the protocol-level content of a message. Implementations
// must be treated as immutable once sent: the same value may be
// delivered to many parties and observed by the adversary.
type Payload interface {
	// SigCount reports how many signature objects (shares or combined
	// threshold/plain signatures) the payload carries. The paper measures
	// communication complexity in number of signatures (Section 2.2).
	SigCount() int
	// ByteSize approximates the payload's wire size in bytes.
	ByteSize() int
}

// Message is a payload in flight on an authenticated channel. From and
// Round are set by the engine; a Byzantine party cannot spoof an honest
// sender identity.
type Message struct {
	From PartyID
	To   PartyID
	// Round is the engine's global round, 1 to Config.Rounds. A stage
	// of a Chain is handed the engine's messages unchanged, so its local
	// round is Deliver's round argument, not this field.
	Round   int
	Payload Payload
}

// Send is a machine's request to transmit a payload next round. To may
// be Broadcast.
type Send struct {
	To      PartyID
	Payload Payload
}

// BroadcastSend is shorthand for a broadcast Send.
func BroadcastSend(p Payload) []Send {
	return []Send{{To: Broadcast, Payload: p}}
}

// Machine is one party's deterministic protocol state machine.
//
// The engine calls Start once for the party's round-1 messages, then
// Deliver at the end of every round r with all round-r messages
// addressed to the party (sorted by sender for determinism, each
// sender's messages in the order it sent them); Deliver
// returns the party's round r+1 messages. After the configured number of
// rounds, Output must return the protocol output.
//
// Machines must tolerate arbitrary garbage from Byzantine senders:
// unexpected payload types, out-of-range values and invalid signatures
// are ignored, never fatal.
type Machine interface {
	// Start returns the messages the party sends in round 1.
	Start() []Send
	// Deliver processes the messages delivered during round r and
	// returns the messages to send in round r+1.
	//
	// The in slice aliases a pooled engine buffer that is overwritten
	// after the call: implementations must copy out whatever they need
	// and must not store in (or any subslice of it) in a field — the
	// `noretain` analyzer enforces this. Retaining individual Message
	// values or payloads is fine; payloads are immutable.
	Deliver(round int, in []Message) []Send
	// Output returns the machine's output and whether it is ready.
	Output() (any, bool)
}

// Tracer observes engine execution; useful for demos and debugging.
// Implementations must not mutate the messages they observe, and must
// not retain the observed slices past the call — they alias pooled
// engine buffers that are refilled every round. Copy message values out
// (as Recorder does) to keep them.
type Tracer interface {
	// RoundStart is invoked before honest machines emit round-r traffic.
	RoundStart(round int)
	// HonestSent is invoked with the honest traffic of the round, before
	// the adversary acts.
	HonestSent(round int, msgs []Message)
	// AdversarySent is invoked with the corrupted parties' traffic.
	AdversarySent(round int, msgs []Message)
	// Corrupted is invoked when the adversary corrupts a party.
	Corrupted(round int, p PartyID)
}

// NopTracer is a Tracer that records nothing.
type NopTracer struct{}

var _ Tracer = NopTracer{}

// RoundStart implements Tracer.
func (NopTracer) RoundStart(int) {}

// HonestSent implements Tracer.
func (NopTracer) HonestSent(int, []Message) {}

// AdversarySent implements Tracer.
func (NopTracer) AdversarySent(int, []Message) {}

// Corrupted implements Tracer.
func (NopTracer) Corrupted(int, PartyID) {}
