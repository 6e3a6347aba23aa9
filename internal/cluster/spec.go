package cluster

import (
	"fmt"
	"net"
	"strings"
	"time"

	"mits/internal/transport"
)

// Spec is the textual cluster topology of the -cluster flag: shards
// separated by ';', replica addresses within a shard separated by ','
// with the first address the shard's primary.
//
//	host1:7201,host1:7202;host2:7201,host2:7202
//
// describes two shards of one primary and one read replica each.

// nodeCallTimeout bounds each dial and call the front door makes to a
// store node.
const nodeCallTimeout = 2 * time.Second

// ParseSpec parses a topology string into shard configurations that
// dial each address over TCP with nodeCallTimeout.
func ParseSpec(spec string) ([]ShardConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("cluster: empty topology spec")
	}
	var shards []ShardConfig
	for i, shardSpec := range strings.Split(spec, ";") {
		var sc ShardConfig
		for j, addr := range strings.Split(shardSpec, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				return nil, fmt.Errorf("cluster: shard %d: empty address", i)
			}
			role := "primary"
			if j > 0 {
				role = fmt.Sprintf("replica%d", j)
			}
			sc.Replicas = append(sc.Replicas, ReplicaConfig{
				Name: fmt.Sprintf("shard%d/%s@%s", i, role, addr),
				Dial: TCPDialer(addr, nodeCallTimeout),
			})
		}
		shards = append(shards, sc)
	}
	return shards, nil
}

// NewTCPRouter builds a router over a -cluster topology string, each
// replica reached through its own resilient TCP client stack.
func NewTCPRouter(spec string) (*Router, error) {
	shards, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(Config{Shards: shards})
}

// TCPDialer dials a remote store node by address, for shards running
// in other processes (cmd/mitsd -cluster).
func TCPDialer(addr string, callTimeout time.Duration) transport.Dialer {
	return func() (transport.Client, error) {
		conn, err := net.DialTimeout("tcp", addr, callTimeout)
		if err != nil {
			return nil, err
		}
		c := transport.NewTCPClient(conn)
		c.Timeout = callTimeout
		return c, nil
	}
}
