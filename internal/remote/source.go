// Package remote implements the distributed information sources active files
// aggregate from and distribute to. The paper's evaluation runs its sentinel
// against "a remote service" on a cluster; here the services are real TCP
// servers (block file store, stock quotes, POP-style mail drops, a delivery
// sink) so the remote critical path (Figure 5, path 1) crosses a genuine
// network stack, albeit loopback. A source is a backend.Object, the one
// object contract.
package remote

import "errors"

// ErrSourceClosed is returned by operations on a closed source.
var ErrSourceClosed = errors.New("remote: source closed")
