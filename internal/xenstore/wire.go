package xenstore

import (
	"fmt"

	"xoar/internal/ring"
	"xoar/internal/sim"
	"xoar/internal/telemetry"
	"xoar/internal/xtypes"
)

// The XenStore wire protocol (§4.4): every VM sets up an I/O ring at boot
// for XenStore communication and exchanges small request/reply messages over
// it, with watch events delivered asynchronously on a companion ring. This
// file implements that transport — a Server pump running in the
// XenStore-Logic domain that charges CPU per operation, and a Client stub
// for the guest side.
//
// The in-process Conn interface remains the store's core; the wire layer
// marshals onto it, exactly as xenstored's connection handler dispatches
// parsed messages onto its internal tree operations.

// MsgType enumerates wire operations, mirroring xs_wire.h.
type MsgType uint8

const (
	MsgRead MsgType = iota
	MsgWrite
	MsgMkdir
	MsgRm
	MsgDirectory
	MsgGetPerms
	MsgSetPerms
	MsgWatch
	MsgUnwatch
	MsgTxStart
	MsgTxEnd
	MsgReply
	MsgError
	MsgWatchEvent
)

func (m MsgType) String() string {
	names := [...]string{"read", "write", "mkdir", "rm", "directory", "get-perms",
		"set-perms", "watch", "unwatch", "tx-start", "tx-end", "reply", "error", "watch-event"}
	if int(m) < len(names) {
		return names[m]
	}
	return fmt.Sprintf("msg(%d)", uint8(m))
}

// Msg is one wire message. Requests and replies share the struct, as in the
// real protocol's fixed header + payload.
type Msg struct {
	Type  MsgType
	Tx    TxID
	Path  string
	Value string
	// Values carries directory listings.
	Values []string
	// Perms carries get/set-perms payloads.
	Perms Perms
	// Commit selects commit vs abort for MsgTxEnd.
	Commit bool
	// Token identifies watches.
	Token string
	// Err is the errno string on MsgError replies.
	Err string
}

// wireOpCPU is xenstored's per-request processing cost.
const wireOpCPU = 8 * sim.Microsecond

// Computer abstracts CPU accounting so the wire layer does not import hv.
type Computer interface {
	Compute(p *sim.Proc, dom xtypes.DomID, d sim.Duration)
}

// Server pumps one connection's request ring inside the XenStore-Logic
// domain.
type Server struct {
	logic    *Logic
	dom      xtypes.DomID // the serving (Logic) domain
	cpu      Computer
	Handled  int64
	eventing bool
}

// NewServer returns a wire server for logic running in dom.
func NewServer(logic *Logic, dom xtypes.DomID, cpu Computer) *Server {
	return &Server{logic: logic, dom: dom, cpu: cpu}
}

// Transport is a connected client/server ring pair for one domain.
type Transport struct {
	// req carries client requests and server replies.
	req *ring.Ring[Msg, Msg]
	// events carries unsolicited watch events (server produces).
	events *ring.Ring[Msg, struct{}]
}

// Serve attaches the server to a new transport for client domain dom and
// starts its pump processes. The returned Client is the guest-side stub.
func (s *Server) Serve(env *sim.Env, client xtypes.DomID, privileged bool) *Client {
	tr := &Transport{
		req:    ring.New[Msg, Msg](env, ring.DefaultSlots),
		events: ring.New[Msg, struct{}](env, ring.DefaultSlots),
	}
	conn := s.logic.Connect(client, privileged)

	// Request pump: pop, charge CPU, dispatch, reply.
	env.Spawn(fmt.Sprintf("xenstored-%v", client), func(p *sim.Proc) {
		for {
			req, err := tr.req.PopRequest(p)
			if err != nil {
				return
			}
			start := p.Now()
			if s.cpu != nil {
				s.cpu.Compute(p, s.dom, wireOpCPU)
			}
			reply := s.dispatch(conn, req)
			if tr.req.Broken() {
				return
			}
			tr.req.PushResponse(reply)
			s.Handled++
			if s.logic.tel != nil {
				// Service latency = CPU charge + dispatch, i.e. the time the
				// request occupied xenstored, excluding ring wait.
				s.logic.tel.Histogram("xenstore_service_us", telemetry.LatencyUSBuckets,
					telemetry.L("op", req.Type.String())).
					Observe(float64(p.Now().Sub(start)) / float64(sim.Microsecond))
			}
		}
	})
	// Event pump: forward watch firings as unsolicited messages.
	env.Spawn(fmt.Sprintf("xenstored-events-%v", client), func(p *sim.Proc) {
		for {
			ev, ok := conn.Events.Recv(p)
			if !ok {
				return
			}
			for {
				if _, ok := tr.events.TryPopResponse(); !ok {
					break
				}
			}
			for !tr.events.TryPushRequest(Msg{Type: MsgWatchEvent, Path: ev.Path, Token: ev.Token}) {
				if _, err := tr.events.PopResponse(p); err != nil {
					return
				}
			}
		}
	})
	return &Client{dom: client, tr: tr, env: env}
}

// dispatch executes one request against the connection.
func (s *Server) dispatch(c *Conn, m Msg) Msg {
	fail := func(err error) Msg { return Msg{Type: MsgError, Err: err.Error()} }
	switch m.Type {
	case MsgRead:
		v, err := c.Read(m.Tx, m.Path)
		if err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply, Value: v}
	case MsgWrite:
		if err := c.Write(m.Tx, m.Path, m.Value); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	case MsgMkdir:
		if err := c.Mkdir(m.Tx, m.Path); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	case MsgRm:
		if err := c.Rm(m.Tx, m.Path); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	case MsgDirectory:
		names, err := c.Directory(m.Tx, m.Path)
		if err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply, Values: names}
	case MsgGetPerms:
		perms, err := c.GetPerms(m.Path)
		if err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply, Perms: perms}
	case MsgSetPerms:
		if err := c.SetPerms(m.Path, m.Perms); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	case MsgWatch:
		if err := c.Watch(m.Path, m.Token); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	case MsgUnwatch:
		c.Unwatch(m.Path, m.Token)
		return Msg{Type: MsgReply}
	case MsgTxStart:
		id, err := c.TxStart()
		if err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply, Tx: id}
	case MsgTxEnd:
		if err := c.TxEnd(m.Tx, m.Commit); err != nil {
			return fail(err)
		}
		return Msg{Type: MsgReply}
	default:
		return fail(fmt.Errorf("xenstore: wire: bad message %v: %w", m.Type, xtypes.ErrInvalid))
	}
}

// Client is the guest-side protocol stub.
type Client struct {
	dom xtypes.DomID
	tr  *Transport
	env *sim.Env
}

// call performs one synchronous request/reply exchange.
func (c *Client) call(p *sim.Proc, req Msg) (Msg, error) {
	if err := c.tr.req.PushRequest(p, req); err != nil {
		return Msg{}, err
	}
	reply, err := c.tr.req.PopResponse(p)
	if err != nil {
		return Msg{}, err
	}
	if reply.Type == MsgError {
		return reply, fmt.Errorf("xenstore: wire %v: %s", req.Type, reply.Err)
	}
	return reply, nil
}

// Read fetches a value.
func (c *Client) Read(p *sim.Proc, tx TxID, path string) (string, error) {
	r, err := c.call(p, Msg{Type: MsgRead, Tx: tx, Path: path})
	return r.Value, err
}

// Write stores a value.
func (c *Client) Write(p *sim.Proc, tx TxID, path, value string) error {
	_, err := c.call(p, Msg{Type: MsgWrite, Tx: tx, Path: path, Value: value})
	return err
}

// Rm removes a subtree.
func (c *Client) Rm(p *sim.Proc, tx TxID, path string) error {
	_, err := c.call(p, Msg{Type: MsgRm, Tx: tx, Path: path})
	return err
}

// Directory lists children.
func (c *Client) Directory(p *sim.Proc, tx TxID, path string) ([]string, error) {
	r, err := c.call(p, Msg{Type: MsgDirectory, Tx: tx, Path: path})
	return r.Values, err
}

// Watch registers for events on path.
func (c *Client) Watch(p *sim.Proc, path, token string) error {
	_, err := c.call(p, Msg{Type: MsgWatch, Path: path, Token: token})
	return err
}

// TxStart opens a transaction.
func (c *Client) TxStart(p *sim.Proc) (TxID, error) {
	r, err := c.call(p, Msg{Type: MsgTxStart})
	return r.Tx, err
}

// TxEnd commits or aborts a transaction.
func (c *Client) TxEnd(p *sim.Proc, tx TxID, commit bool) error {
	_, err := c.call(p, Msg{Type: MsgTxEnd, Tx: tx, Commit: commit})
	return err
}

// NextEvent blocks until an unsolicited watch event arrives.
func (c *Client) NextEvent(p *sim.Proc) (WatchEvent, error) {
	m, err := c.tr.events.PopRequest(p)
	if err != nil {
		return WatchEvent{}, err
	}
	c.tr.events.PushResponse(struct{}{})
	return WatchEvent{Path: m.Path, Token: m.Token}, nil
}
