package cluster

import (
	"net"
	"time"

	"mits/internal/faults"
	"mits/internal/mediastore"
	"mits/internal/transport"
)

// StoreNode is one cluster member in test shape: a MEDIASTORE served
// over TCP behind a fault injector, as cmd/mitsd -shard serves one
// without the injector. The tests and the E31 chaos scenarios spin
// them up in-process so they can kill, partition and heal real nodes —
// Partition(true) is a replica dropping off the network, Close is a
// crash.
type StoreNode struct {
	Name     string
	Store    *mediastore.Store
	Injector *faults.Injector

	srv  *transport.TCPServer
	addr string
}

// StartStoreNode binds a loopback TCP listener, wraps it with a fault
// injector running scen, and serves a fresh store on it.
func StartStoreNode(name string, scen faults.Scenario, seed uint64) (*StoreNode, error) {
	n := &StoreNode{
		Name:     name,
		Store:    mediastore.New(),
		Injector: faults.NewInjector(scen, seed),
	}
	mux := transport.NewMux()
	transport.RegisterStore(mux, n.Store)
	n.srv = transport.NewTCPServer(mux)
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := n.srv.Serve(n.Injector.WrapListener(base)); err != nil {
		base.Close()
		return nil, err
	}
	n.addr = base.Addr().String()
	return n, nil
}

// Addr is the node's dial address.
func (n *StoreNode) Addr() string { return n.addr }

// Dialer returns a transport dialer reaching this node through its
// injector — so a partitioned node refuses the router's dials exactly
// like a severed link would.
func (n *StoreNode) Dialer(callTimeout time.Duration) transport.Dialer {
	return func() (transport.Client, error) {
		conn, err := n.Injector.Dial(n.addr)
		if err != nil {
			return nil, err
		}
		c := transport.NewTCPClient(conn)
		c.Timeout = callTimeout
		return c, nil
	}
}

// Partition cuts (or heals) the node's network.
func (n *StoreNode) Partition(cut bool) { n.Injector.SetPartitioned(cut) }

// Close stops the node's server — the crash half of crash/partition.
func (n *StoreNode) Close() error { return n.srv.Close() }
