package transport

import (
	"net"
	"time"

	"proxcensus/internal/wire"
)

// RawClient is a wire-level hub connection that bypasses the MuxNode
// machinery: it sends exactly the round batches it is told to, whatever
// the payload bytes inside them. The chaos harness uses it to run Byzantine nodes — peers that
// hold an authenticated slot (the hub stamps their true ID on every
// delivery) but speak the protocol maliciously. It is not safe for
// concurrent use.
type RawClient struct {
	// Instance is the tag SendBatch stamps on its frames; the zero value
	// is LocalInstance, the instance a local execution runs as.
	Instance int

	conn net.Conn
	cfg  Config
}

// DialRaw connects to the hub at addr and claims node slot id with a
// versioned hello, retrying with the same capped backoff as an honest
// node. resume is 0 on first contact.
func DialRaw(addr string, id, resume int, cfg Config) (*RawClient, error) {
	cfg = cfg.withDefaults()
	conn, err := dial(addr, id, resume, cfg, newEventLog(0), nil)
	if err != nil {
		return nil, err
	}
	return &RawClient{conn: conn, cfg: cfg}, nil
}

// Close releases the connection.
func (c *RawClient) Close() error { return c.conn.Close() }

// SendBatch sends a well-formed round batch tagged for c.Instance. A
// round other than the current one is the wrong-round attack.
func (c *RawClient) SendBatch(round int, msgs []wire.BatchMsg) error {
	frame, err := wire.AppendEncodeTaggedBatch(beginFrame(nil), c.Instance, round, msgs)
	if err != nil {
		return err
	}
	return writeFrame(c.conn, sealFrame(frame), time.Now().Add(c.cfg.RoundTimeout))
}

// Recv reads the hub's next delivery, of whatever instance, straight
// off the connection, unbuffered, and parses it as a batch in place:
// every read is a fresh buffer the returned payloads alias, and the
// entries back-referencing one literal share its bytes, so a delivery
// costs its frame plus its entry list however often the frame repeats
// a payload. Like honest nodes it allows two round timeouts: the hub
// may spend a full one waiting out a dying peer.
func (c *RawClient) Recv() (round int, msgs []wire.BatchMsg, err error) {
	frame, err := readFrame(c.conn, time.Now().Add(2*c.cfg.RoundTimeout))
	if err != nil {
		return 0, nil, err
	}
	_, round, msgs, _, err = wire.DecodeTaggedBatchAliasCapped(frame, -1, nil)
	return round, msgs, err
}
