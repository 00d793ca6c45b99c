#!/usr/bin/env bash
# Mutation smoke: prove the test wall detects the faults it claims to
# rule out. A pristine copy of the module is mutated twenty times, and
# each time the tests named for that mutation must go red:
#   1. the transport's one batched ingress screen swapped for an inline
#      loop that admits whatever decodes: the hub flood-control test and
#      the chaos suite's Byzantine rejection classes;
#   2. the read deadline stripped from readFrameInto: the hub's and the
#      node's idle-read timeout tests and the half-frame read timeout
#      test;
#   3. the configurable payload size cap deleted from the validate
#      rules: the payload cap unit tests;
#   4. a node's received frame released before the machine has stepped
#      on the payloads that alias it: the poisoned-frame lifetime test;
#   5. the screen's duplicate check consulting only a sender's slot,
#      never its spill: the screen's differential and batch-splitting
#      tests;
#   6. the Turpin-Coan prefix's round-2 tie-break flipped: both value
#      domains' reference tests;
#   7. the write deadline stripped from writeFrame: the stalled-peer
#      write timeout test;
#   8. the hub reader's flood cap removed: the hub flood-control test;
#   9. the node's pooled ingress scratch dropped every round: the
#      steady-state ingress allocation pin;
#  10. the batch codec's back-reference test comparing payload lengths
#      instead of bytes: payload BA over TCP against the simulator, and
#      the wire's back-reference layout table;
#  11. the connection readers building their buffered reader per frame
#      instead of once per connection: the coalesced-frames test;
#  12. the linear Proxcensus machine storing a vote share without
#      verifying it — the machines are the one signature check, the
#      screen checks structure only: the forged-input table and the
#      forged-share validity test over TCP;
#  13. the screen reading a message's class from the last byte of its
#      encoding instead of the tag: the wire's class table, the screen's
#      wrong-phase-type test and the admission differential;
#  14. the screen's duplicate check taking a sender's message for its
#      first of the round when only the lengths match: the admission
#      differential and the vote and payload equivocation tests;
#  15. the line API hex-decoding a proposeb payload in place, so the
#      queued payload aliases the scanner's line: the client payload
#      round trip, the daemon's end-to-end test and the line-parse
#      allocation pin;
#  16. a node's instance slot going back idle without its screen reset:
#      the slot-reuse test, whose second instance opens with the bytes
#      the first one's screen still holds;
#  17. a reused multivalued machine set keeping its binary core's done
#      flag from the last instance: the protocol's reset-vs-new
#      differential and the service's machine-reuse test;
#  18. the worker that decides an API proposal writing its answer to the
#      client's socket itself instead of queueing it for the
#      connection's writer: the slow-client isolation test;
#  19. the worker queueing an API proposal's decision unrendered, for the
#      connection's writer to render once it takes the queue, when the
#      decided payload aliases a batch input the worker has since zeroed
#      and reused: the answers-outlive-the-batch-input test;
#  20. an outbox flush writing only the first frame it took and
#      answering the others as written: the outbox coalescing test.
# Every mutation first checks that its tests are green on the copy as it
# stands, so their red means the mutation and nothing else. A test that
# stays green on a mutated module is a broken guard, not a clean module;
# CI runs this nightly.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d "${TMPDIR:-/tmp}/lint-mutation.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# Copy the working tree (not a git archive: local runs should test the
# tree as it is), excluding VCS metadata, result artifacts and the
# benchmark's build cache.
tar --exclude=./.git --exclude=./results --exclude=./.bench_build -cf - . | tar -C "$tmp" -xf -

# expect_test_fail <pattern> <pkg> asserts the named tests go red on
# the mutated module — green means the test wall has a hole.
expect_test_fail() {
    local pattern="$1" pkg="$2" out status
    set +e
    out="$(cd "$tmp" && go test -count=1 -run "$pattern" "$pkg" 2>&1)"
    status=$?
    set -e
    if [[ $status -eq 0 ]]; then
        echo "FAIL: $pattern stayed green with the mutation in place:" >&2
        echo "$out" >&2
        exit 1
    fi
    echo "ok: $pattern caught the mutation"
}

echo "mutation 1: swap the batched ingress screen for a loop that admits whatever decodes"
mux="$tmp/internal/transport/mux.go"
cp "$mux" "$tmp/mux.pristine"
# AdmitBatch is the only screen there is; the transport must call it in
# exactly one place, or this mutation no longer removes the screen.
admit_line='verdicts := ir.ingress.AdmitBatch(round, ir.in, ir.verdicts[:0])'
admit_calls="$(grep -hF '.AdmitBatch(' "$tmp"/internal/transport/*.go)"
if [[ "$(wc -l <<<"$admit_calls")" -ne 1 ]] || ! grep -qF "$admit_line" <<<"$admit_calls"; then
    echo "FAIL: expected exactly one AdmitBatch call in internal/transport, the screen line in mux.go" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestHubFloodControl' ./internal/transport)
(cd "$tmp" && go test -count=1 -run 'TestByzRejectionClasses' ./internal/chaos)
# There is no screen-off mode to fall back on, so the mutation writes
# the decode-only loop inline.
sed -i "s/verdicts := ir\.ingress\.AdmitBatch(round, ir\.in, ir\.verdicts\[:0\])/verdicts := ir.verdicts[:0]; for i := range ir.in { verdicts = append(verdicts, ir.in[i].Err == nil) }/" "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestHubFloodControl' ./internal/transport
expect_test_fail 'TestByzRejectionClasses' ./internal/chaos

cp "$tmp/mux.pristine" "$mux"

echo "mutation 2: strip the deadline arming from readFrameInto"
transport="$tmp/internal/transport/transport.go"
arm_line='if err := conn.SetReadDeadline(deadline); err != nil {'
if [[ "$(grep -cF "$arm_line" "$transport")" -ne 1 ]]; then
    echo "FAIL: expected exactly one readFrameInto arming line in transport.go" >&2
    exit 1
fi
read_tests='TestHubReadTimesOutSilentPeer|TestNodeReadTimesOutSilentHub|TestReadTimesOutOnHalfFrame'
(cd "$tmp" && go test -count=1 -run "$read_tests" ./internal/transport)
sed -i '/if err := conn\.SetReadDeadline(deadline); err != nil {/,+2d' "$transport"
(cd "$tmp" && go build ./internal/transport)
# Without the deadline every reader blocks until its watchdog fires.
expect_test_fail 'TestHubReadTimesOutSilentPeer' ./internal/transport
expect_test_fail 'TestNodeReadTimesOutSilentHub' ./internal/transport
expect_test_fail 'TestReadTimesOutOnHalfFrame' ./internal/transport

echo "mutation 3: delete the configurable payload size cap from the validate rules"
rules="$tmp/internal/validate/rules.go"
cap_line='if r.MaxPayloadBytes > 0 && size > r.MaxPayloadBytes {'
if [[ "$(grep -cF "$cap_line" "$rules")" -ne 1 ]]; then
    echo "FAIL: expected exactly one configurable payload-cap line in rules.go" >&2
    exit 1
fi
# Delete the three-line cap block; the hard wire-format cap below it
# keeps the module compiling, so only the payload test wall stands
# between this mutation and production.
sed -i '/if r\.MaxPayloadBytes > 0 && size > r\.MaxPayloadBytes {/,+2d' "$rules"
(cd "$tmp" && go build ./internal/validate)
expect_test_fail 'TestPayloadSizeCap' ./internal/validate

echo "mutation 4: release the node's received frame before machine.Deliver"
cp "$tmp/mux.pristine" "$mux"
deliver_line='sends = machine.Deliver(round, inbox)'
release_line='nd.frames.put(f)'
if [[ "$(grep -cF "$deliver_line" "$mux")" -ne 1 ]] ||
    [[ "$(grep -A1 -F "$deliver_line" "$mux" | grep -cF "$release_line")" -ne 1 ]]; then
    echo "FAIL: expected exactly one node-side Deliver line in mux.go, followed by the frame release" >&2
    exit 1
fi
# The copy still carries mutations 2 and 3, so the test must be green
# before the swap for its red to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestPoisonedFramesPayloadMatchesSim' ./internal/transport)
# Swap the two lines: the frame goes back to the free list — poisoned,
# under the tests' switch — while the inbox's payload blobs still alias
# it, so the machine steps on 0xDB and decides something the simulator
# does not.
sed -i '/sends = machine\.Deliver(round, inbox)/{N;s/^\(.*\)\n\(.*\)$/\2\n\1/}' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestPoisonedFramesPayloadMatchesSim' ./internal/transport

echo "mutation 5: the duplicate check consults the sender's slot and skips the spill"
validate="$tmp/internal/validate/validate.go"
spill_line='if _, seen := v.dup[key]; seen {'
if [[ "$(grep -cF "$spill_line" "$validate")" -ne 1 ]]; then
    echo "FAIL: expected exactly one dup-spill lookup in validate.go" >&2
    exit 1
fi
# The copy still carries mutations 3 and 4, so the tests must be green
# before the change for their red to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestBatchEquivalenceAdversarial|FuzzAdmitBatch' ./internal/validate)
# A sender's second distinct message of a round still lands in the
# spill, but a resend of it is no longer found there: it passes as new,
# then trips the equivocation check or is admitted twice.
sed -i 's/if _, seen := v\.dup\[key\]; seen {/if false {/' "$validate"
(cd "$tmp" && go build ./internal/validate)
expect_test_fail 'TestBatchEquivalenceAdversarial|FuzzAdmitBatch' ./internal/validate

echo "mutation 6: flip the prefix's round-2 tie-break to the larger value"
multival="$tmp/internal/ba/multival.go"
tie_line='d.less(c.v, best.v)'
if [[ "$(grep -cF "$tie_line" "$multival")" -ne 1 ]]; then
    echo "FAIL: expected exactly one round-2 tie-break in multival.go" >&2
    exit 1
fi
prefix_tests='TestDigestPrefixMatchesCountMapRule|TestPayloadPrefixMatchesSortedKeyRule'
# The copy still carries mutations 3 to 5, so the tests must be green
# before the flip for their red to mean anything.
(cd "$tmp" && go test -count=1 -run "$prefix_tests" ./internal/ba)
# One prefix serves both value domains, so one edit must break both
# families' reference tests.
sed -i 's/d\.less(c\.v, best\.v)/d.less(best.v, c.v)/' "$multival"
(cd "$tmp" && go build ./internal/ba)
expect_test_fail 'TestDigestPrefixMatchesCountMapRule' ./internal/ba
expect_test_fail 'TestPayloadPrefixMatchesSortedKeyRule' ./internal/ba

echo "mutation 7: strip the deadline arming from writeFrame"
arm_line='if err := conn.SetWriteDeadline(deadline); err != nil {'
if [[ "$(grep -cF "$arm_line" "$transport")" -ne 1 ]]; then
    echo "FAIL: expected exactly one writeFrame arming line in transport.go" >&2
    exit 1
fi
# The copy still carries mutations 2 to 6, so the test must be green
# before the strip for its red to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestWriteFrameTimesOutOnStalledPeer' ./internal/transport)
sed -i '/if err := conn\.SetWriteDeadline(deadline); err != nil {/,+2d' "$transport"
(cd "$tmp" && go build ./internal/transport)
# Without the deadline the write blocks on the full socket buffers until
# the test's watchdog fires.
expect_test_fail 'TestWriteFrameTimesOutOnStalledPeer' ./internal/transport

echo "mutation 8: the hub reader parses round frames with no flood cap"
cp "$tmp/mux.pristine" "$mux"
parse_line='f.parse(DefaultFloodLimit)'
if [[ "$(grep -cF "$parse_line" "$mux")" -ne 1 ]]; then
    echo "FAIL: expected exactly one capped frame parse in mux.go, the hub reader's" >&2
    exit 1
fi
# mux.go is pristine again, but the copy still carries mutations 2, 3
# and 5 to 7, so the test must be green before the change for its red
# to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestHubFloodControl' ./internal/transport)
# A negative cap materializes every entry: the flooder's batches reach
# the nodes whole and no EventFlood is logged.
sed -i 's/f\.parse(DefaultFloodLimit)/f.parse(-1)/' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestHubFloodControl' ./internal/transport

echo "mutation 9: decodeRound drops its pooled ingress scratch every round"
cp "$tmp/mux.pristine" "$mux"
reset_line='ir.in = ir.in[:0]'
if [[ "$(grep -cF "$reset_line" "$mux")" -ne 1 ]]; then
    echo "FAIL: expected exactly one ingress scratch reset in mux.go, decodeRound's" >&2
    exit 1
fi
# mux.go is pristine again, but the copy still carries mutations 2, 3
# and 5 to 7, so the test must be green before the change for its red
# to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestIngressSteadyStateAllocations' ./internal/transport)
# The round's Inbound list regrows from nil every round. Behaviour is
# unchanged, so only the allocation pin can notice.
sed -i 's/ir\.in = ir\.in\[:0\]/ir.in = nil/' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestIngressSteadyStateAllocations' ./internal/transport

echo "mutation 10: the batch codec takes a payload of equal length for a repeat"
cp "$tmp/mux.pristine" "$mux"
codec="$tmp/internal/wire/mux.go"
repeat_line='return len(p) > 0 && bytes.Equal(p, last)'
if [[ "$(grep -cF "$repeat_line" "$codec")" -ne 1 ]]; then
    echo "FAIL: expected exactly one payload comparison in wire/mux.go, repeats'" >&2
    exit 1
fi
# The transport's mux.go is pristine again, but the copy still carries
# mutations 2, 3 and 5 to 7, so the tests must be green before the
# change for their red to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestPoisonedFramesPayloadMatchesSim' ./internal/transport)
(cd "$tmp" && go test -count=1 -run 'TestBatchBackReferenceLayout' ./internal/wire)
# Distinct payloads of one length now go out as back-references to the
# first, so receivers read another sender's bytes: shares fail the
# screen and blobs differ. The appended line keeps the import in use.
sed -i 's/return len(p) > 0 \&\& bytes\.Equal(p, last)/return len(p) > 0 \&\& len(p) == len(last)/' "$codec"
echo 'var _ = bytes.Equal' >>"$codec"
(cd "$tmp" && go build ./internal/wire)
expect_test_fail 'TestPoisonedFramesPayloadMatchesSim' ./internal/transport
expect_test_fail 'TestBatchBackReferenceLayout' ./internal/wire

echo "mutation 11: the connection readers buffer each frame afresh"
cp "$tmp/mux.pristine" "$mux"
read_line='readFrameInto(conn, r, deadline, f.buf[:0])'
if [[ "$(grep -cF "$read_line" "$mux")" -ne 1 ]]; then
    echo "FAIL: expected exactly one buffered frame read in mux.go, frame.read's" >&2
    exit 1
fi
# mux.go is pristine again, but the copy still carries mutations 2, 3,
# 5 to 7 and 10, so the test must be green before the change for its
# red to mean anything.
(cd "$tmp" && go test -count=1 -run 'TestCoalescedFramesEachReadOnce' ./internal/transport)
# Every frame read gets a fresh buffer: whatever the read syscall took
# in past the frame — the frames the peer sent in the same segment — is
# thrown away with it.
sed -i 's/readFrameInto(conn, r, deadline, f\.buf\[:0\])/readFrameInto(conn, newConnReader(conn), deadline, f.buf[:0])/' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestCoalescedFramesEachReadOnce' ./internal/transport

echo "mutation 12: the linear machine stores a vote share without verifying it"
# Earlier mutations left ba, the screen, the wire codec and the
# transport edited (mutation 10's length compare would relay the
# forger's vote as its neighbour's); start them and the machines from
# the tree as it stands.
for pkg in ba proxcensus validate wire transport; do
    cp internal/$pkg/*.go "$tmp/internal/$pkg/"
done
linear="$tmp/internal/proxcensus/linear.go"
vote_line='if !threshsig.VerShare(m.pk, LinearSigmaMessage(p.V), p.Share) {'
if [[ "$(grep -cF "$vote_line" "$linear")" -ne 1 ]]; then
    echo "FAIL: expected exactly one vote-share check in proxcensus/linear.go, LinearMachine.absorb's" >&2
    exit 1
fi
forged_tests='TestForgedInputIsIgnored|TestTCPForgedSharesCannotBreakValidity'
(cd "$tmp" && go test -count=1 -run "$forged_tests" ./internal/ba)
# A forged vote share from its own signer is stored and blocks Σ: the
# honest shares never combine with it in the set.
sed -i 's/if !threshsig\.VerShare(m\.pk, LinearSigmaMessage(p\.V), p\.Share) {/if false {/' "$linear"
(cd "$tmp" && go build ./internal/proxcensus)
expect_test_fail 'TestForgedInputIsIgnored' ./internal/ba
expect_test_fail 'TestTCPForgedSharesCannotBreakValidity' ./internal/ba
cp internal/proxcensus/linear.go "$linear"

echo "mutation 13: the screen reads a message's class from the last byte of its encoding"
# Earlier mutations left validate and the wire codec edited; start both
# from the tree as it stands.
cp internal/validate/*.go "$tmp/internal/validate/"
cp internal/wire/*.go "$tmp/internal/wire/"
wirecodec="$tmp/internal/wire/wire.go"
class_line='if c := Class(b[0]); c.registered() {'
if [[ "$(grep -cF "$class_line" "$wirecodec")" -ne 1 ]]; then
    echo "FAIL: expected exactly one tag read in wire.go, EncodedClass's" >&2
    exit 1
fi
screen_tests='TestRejectTypeForPhase|FuzzAdmitBatch'
(cd "$tmp" && go test -count=1 -run 'TestClassTable' ./internal/wire)
(cd "$tmp" && go test -count=1 -run "$screen_tests" ./internal/validate)
# The screen judges each message as whatever class its last byte names,
# mostly none at all: honest echoes and values are rejected as
# malformed, or pass a phase table as a class they are not.
sed -i 's/if c := Class(b\[0\]); c\.registered() {/if c := Class(b[len(b)-1]); c.registered() {/' "$wirecodec"
(cd "$tmp" && go build ./internal/wire)
expect_test_fail 'TestClassTable' ./internal/wire
expect_test_fail 'TestRejectTypeForPhase' ./internal/validate
expect_test_fail 'FuzzAdmitBatch' ./internal/validate

echo "mutation 14: the duplicate check compares a sender's message to its first by length"
# Mutation 13 left the wire codec edited, and mutations 3, 5 and 12 the
# screen; start both from the tree as it stands.
cp internal/validate/*.go "$tmp/internal/validate/"
cp internal/wire/*.go "$tmp/internal/wire/"
validate="$tmp/internal/validate/validate.go"
slot_line='if bytes.Equal(s.raw, raw) {'
if [[ "$(grep -cF "$slot_line" "$validate")" -ne 1 ]]; then
    echo "FAIL: expected exactly one slot comparison in validate.go, duplicate's" >&2
    exit 1
fi
slot_tests='FuzzAdmitBatch|TestEquivocationDetection|TestPayloadDuplicateAndEquivocation'
(cd "$tmp" && go test -count=1 -run "$slot_tests" ./internal/validate)
# A sender's second message of a round that is as long as its first —
# a vote for the other value, a payload of the same size — is rejected
# as a duplicate instead of being caught as an equivocation. The
# appended line keeps the import in use.
sed -i 's/if bytes\.Equal(s\.raw, raw) {/if len(s.raw) == len(raw) {/' "$validate"
echo 'var _ = bytes.Equal' >>"$validate"
(cd "$tmp" && go build ./internal/validate)
expect_test_fail 'FuzzAdmitBatch' ./internal/validate
expect_test_fail 'TestEquivocationDetection' ./internal/validate
expect_test_fail 'TestPayloadDuplicateAndEquivocation' ./internal/validate

echo "mutation 15: parseRequest decodes a payload in place, aliasing the scanner's line"
# Start the packages earlier mutations edited from the tree as it
# stands, so the service runs on the real transport, codec and screen.
cp internal/validate/*.go "$tmp/internal/validate/"
cp internal/wire/*.go "$tmp/internal/wire/"
cp internal/transport/*.go "$tmp/internal/transport/"
client="$tmp/internal/service/client.go"
decode_line='n, err := hex.Decode(payload, f)'
if [[ "$(grep -cF "$decode_line" "$client")" -ne 1 ]]; then
    echo "FAIL: expected exactly one payload decode in client.go, parseRequest's" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestServiceClientPayloadAPI|TestParseLineAllocations' ./internal/service)
(cd "$tmp" && go test -count=1 -run 'TestDaemonEndToEnd' ./cmd/proxserve)
# The payload is decoded into the first half of the line it came in on
# and queued as that: the scanner's next read moves later lines over
# it, so pipelined proposals decide bytes the client never sent.
sed -i 's/n, err := hex\.Decode(payload, f)/n, err := hex.Decode(f, f); payload = f/' "$client"
(cd "$tmp" && go build ./internal/service)
expect_test_fail 'TestServiceClientPayloadAPI' ./internal/service
expect_test_fail 'TestParseLineAllocations' ./internal/service
expect_test_fail 'TestDaemonEndToEnd' ./cmd/proxserve

echo "mutation 16: a node's instance slot goes back idle with its screen as the instance left it"
cp internal/transport/*.go "$tmp/internal/transport/"
reset_call='ir.ingress.Reset()'
if [[ "$(grep -cF "$reset_call" "$mux")" -ne 1 ]]; then
    echo "FAIL: expected exactly one screen reset in mux.go, putSlot's" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestSlotReuseScreensAfresh' ./internal/transport)
# The next instance on the slot starts at the round the last one ended
# in, with every sender's slot still holding that round's message: its
# first round's honest traffic is rejected as duplicates or
# equivocations. (Deleting Reset's round = 0 alone is masked by the
# fresh stamp Reset also takes; the validate package's Reset test pins
# both.)
sed -i '/ir\.ingress\.Reset()/d' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestSlotReuseScreensAfresh' ./internal/transport

echo "mutation 17: a reused machine set keeps its core's done flag from the last instance"
# Start every package an earlier mutation edited from the tree as it
# stands: the prefix (mutation 6), the screen, the codec, the transport
# and the line API all run under the service test.
for pkg in ba validate wire transport service; do
    cp internal/$pkg/*.go "$tmp/internal/$pkg/"
done
iter="$tmp/internal/ba/iter.go"
iter_reset='m.round, m.out, m.done = 0, 0, false'
if [[ "$(grep -cF "$iter_reset" "$iter")" -ne 1 ]]; then
    echo "FAIL: expected exactly one IterMachine rewind in iter.go, reset's" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestProtocolResetMatchesNew' ./internal/ba)
(cd "$tmp" && go test -count=1 -run 'TestWorkerReusesMachinesAcrossInstances' ./internal/service)
# A reset core stays done: it skips its rounds and outputs the bit it
# decided last time. The service's first digest instance leaves the
# cut-off node decided on the default, so that node decides the default
# again in the next digest instance on the same worker.
sed -i 's/m\.round, m\.out, m\.done = 0, 0, false/m.round, m.out = 0, 0/' "$iter"
(cd "$tmp" && go build ./internal/ba)
expect_test_fail 'TestProtocolResetMatchesNew' ./internal/ba
expect_test_fail 'TestWorkerReusesMachinesAcrossInstances' ./internal/service

echo "mutation 18: the deciding worker writes an API answer to the client's socket itself"
# Mutation 17 left ba edited; start it and the service from the tree
# as it stands.
for pkg in ba service; do
    cp internal/$pkg/*.go "$tmp/internal/$pkg/"
done
queue_line='c.queue = append(c.queue, line...)'
if [[ "$(grep -cF "$queue_line" "$client")" -ne 1 ]]; then
    echo "FAIL: expected exactly one answer-queue append in client.go, apiConn.answer's" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestSlowClientIsolatesItself' ./internal/service)
# The answer is rendered and written on the worker's goroutine: once a
# client that never reads has filled its socket buffers, the write
# blocks the worker until the write deadline, and every instance behind
# it waits.
sed -i 's/c\.queue = append(c\.queue, line\.\.\.)/_ = c.w.flush(c.conn, append(c.w.begin(), line...))/' "$client"
(cd "$tmp" && go build ./internal/service)
expect_test_fail 'TestSlowClientIsolatesItself' ./internal/service

echo "mutation 19: the worker queues an API decision unrendered, for the writer to render later"
cp internal/service/*.go "$tmp/internal/service/"
render_line='line := appendAnswer(scratch[:0], reqid, isPayload, d)'
take_line='c.spent, c.queue = c.queue, c.spent[:0]'
if [[ "$(grep -cF "$render_line" "$client")" -ne 1 ]] || [[ "$(grep -cF "$take_line" "$client")" -ne 1 ]]; then
    echo "FAIL: expected exactly one answer rendering in client.go, apiConn.answer's, and one queue swap, writeAnswers'" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestAPIAnswersOutliveTheBatchInput' ./internal/service)
# answer keeps the Decision, whose payload aliases the worker's batch
# input, and the writer renders it when it next takes the queue: by
# then the instance has returned, the input is zeroed and later
# instances have written their batches over it, so the client that
# read nothing while its answers piled up is echoed other bytes.
cat >"$tmp/internal/service/late_answers.go" <<'GO'
package service

import "sync"

var (
	lateMu      sync.Mutex
	lateAnswers = map[*apiConn][]lateAnswer{}
)

type lateAnswer struct {
	reqid     string
	isPayload bool
	d         Decision
}

func (c *apiConn) queueLate(reqid string, isPayload bool, d Decision) {
	lateMu.Lock()
	lateAnswers[c] = append(lateAnswers[c], lateAnswer{reqid, isPayload, d})
	lateMu.Unlock()
}

// renderLate runs under c.mu, as the writer takes the queue.
func (c *apiConn) renderLate() {
	lateMu.Lock()
	for _, a := range lateAnswers[c] {
		c.queue = appendAnswer(c.queue, a.reqid, a.isPayload, a.d)
	}
	delete(lateAnswers, c)
	lateMu.Unlock()
}
GO
sed -i 's/line := appendAnswer(scratch\[:0\], reqid, isPayload, d)/line := scratch[:0]; c.queueLate(reqid, isPayload, d)/' "$client"
sed -i 's/c\.spent, c\.queue = c\.queue, c\.spent\[:0\]/c.renderLate(); c.spent, c.queue = c.queue, c.spent[:0]/' "$client"
(cd "$tmp" && go build ./internal/service)
expect_test_fail 'TestAPIAnswersOutliveTheBatchInput' ./internal/service

echo "mutation 20: an outbox flush writes only the first frame it took"
cp internal/transport/*.go "$tmp/internal/transport/"
flush_line='for _, f := range taken {'
if [[ "$(grep -cF "$flush_line" "$mux")" -ne 1 ]]; then
    echo "FAIL: expected exactly one loop over the taken frames in mux.go, outbox.flush's" >&2
    exit 1
fi
(cd "$tmp" && go test -count=1 -run 'TestOutboxCoalescesConcurrentFrames' ./internal/transport)
# The flush builds its write from the first frame alone, and drain
# answers every frame it took with the flush's result: the frames
# queued behind the first are reported written but never reach the
# connection.
sed -i 's/for _, f := range taken {/for _, f := range taken[:1] {/' "$mux"
(cd "$tmp" && go build ./internal/transport)
expect_test_fail 'TestOutboxCoalescesConcurrentFrames' ./internal/transport

echo "MUTATION SMOKE OK"
