package server

import (
	"errors"
	"fmt"
	"time"

	"crucial/internal/core"
)

// ChaosCmd is the payload of a KindChaos RPC: a lifecycle command sent
// by dso-cli chaos. It goes through the node's OnChaosLifecycle hook — in
// dso-server that is the supervisor loop, which bounces the node
// process-internally.
type ChaosCmd struct {
	// Op is "crash" or "restart".
	Op string
}

// handleChaos applies one ChaosCmd.
func (n *Node) handleChaos(payload []byte) ([]byte, error) {
	var cmd ChaosCmd
	if err := core.DecodeValue(payload, &cmd); err != nil {
		return nil, err
	}
	switch cmd.Op {
	case "crash", "restart":
		if n.cfg.OnChaosLifecycle == nil {
			return nil, errors.New("server: node has no chaos lifecycle hook")
		}
		// Acknowledge before acting: the hook tears down this node's RPC
		// server, which waits for in-flight handlers — including this one.
		op := cmd.Op
		hook := n.cfg.OnChaosLifecycle
		n.log.Info("chaos lifecycle command", "op", op)
		go func() {
			time.Sleep(20 * time.Millisecond) // let the ack frame flush
			if err := hook(op); err != nil {
				n.log.Warn("chaos lifecycle failed", "op", op, "err", err)
			}
		}()
	default:
		return nil, fmt.Errorf("server: unknown chaos op %q", cmd.Op)
	}
	return core.EncodeValue("ok")
}
