// Package cluster turns a set of vbmcd daemons into one horizontally
// scaled verification service. Membership is static — every node is
// started with the same `-peers` list — and request ownership is
// decided by a consistent-hash ring over the content-addressed cache
// key (internal/cache.Digest): the SHA-256 of the canonicalized
// program, mode, bounds and toolchain version. Because every node runs
// the same binary and derivation, all nodes agree on each request's
// single owner without any coordination traffic.
//
// On top of the ring sits a lightweight health layer: each node
// periodically probes its peers' /readyz endpoint and keeps an
// up/draining/down state per peer, demoted passively too when a
// forward fails. The serving layer (internal/serve) consults both: a
// request whose owner is another live node is forwarded there; when
// the owner is draining or down the request is executed locally
// instead — and before computing a cold miss locally, the owner's
// cache is asked over GET /v1/cache/{key} so warm results replicate
// instead of recompute.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ravbmc/internal/cache"
	"ravbmc/internal/fp"
)

// defaultReplicas is the virtual-node count per peer: enough that a
// three-node ring splits the key space within a few percent of evenly,
// cheap enough that building the ring is instantaneous.
const defaultReplicas = 128

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a static-membership consistent-hash ring. Every node builds
// it from the same peer list, so Owner is a pure function of the
// digest — all nodes agree on ownership without talking.
type Ring struct {
	points []ringPoint
}

// NewRing builds the ring with the given virtual-node count per peer
// (<=0 selects the default 128).
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	points := make([]ringPoint, 0, len(nodes)*replicas)
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			key := fmt.Sprintf("%s#%d", n, i)
			// FNV-1a over the short, similar virtual-node keys ("n1#0",
			// "n1#1", ...) leaves the high bits — the ones sort order
			// and the ring position depend on — badly mixed, which
			// skews ownership 5:1 on a three-node ring; Mix64 restores
			// balance.
			points = append(points, ringPoint{hash: fp.Mix64(fp.Hash64([]byte(key))), node: n})
		}
	}
	// Ties broken by node name so the ring is deterministic even under
	// a (vanishingly unlikely) 64-bit point collision.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	return &Ring{points: points}
}

// Owner maps a cache digest to the node owning it: the first ring
// point at or clockwise of the digest's position. The digest's leading
// bytes are already uniformly distributed (SHA-256), so they are used
// directly as the ring position.
func (r *Ring) Owner(d cache.Digest) string {
	if len(r.points) == 0 {
		return ""
	}
	h := binary.BigEndian.Uint64(d[:8])
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
	return r.points[idx].node
}
