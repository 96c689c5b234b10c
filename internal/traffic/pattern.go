package traffic

import (
	"gonoc/internal/sim"
	"gonoc/internal/transport"
)

// chooser picks destinations for one source node according to the
// configured pattern. Deterministic patterns (transpose, bit-complement)
// fall back to uniform-random when their geometric precondition fails
// for a given source (off-square nodes, self-destined diagonal) so every
// configuration produces load on every node count.
type chooser struct {
	cfg  *Config
	src  int
	rng  *sim.RNG
	n    int
	w, h int

	// Bursty state: remaining transactions aimed at burstDst.
	burstLeft int
	burstDst  int
}

func newChooser(cfg *Config, src int, rng *sim.RNG) *chooser {
	return &chooser{cfg: cfg, src: src, rng: rng, n: cfg.Nodes, w: cfg.MeshW, h: cfg.MeshH}
}

// uniformOther returns a uniform destination excluding the source.
func uniformOther(rng *sim.RNG, n, src int) int {
	if n < 2 {
		return src
	}
	d := rng.Intn(n - 1)
	if d >= src {
		d++
	}
	return d
}

// transposeDest maps node i at (x=i%w, y=i/w) to the node at (y, x).
// ok is false off the square region, on the diagonal, or off-mesh.
func transposeDest(i, w, h, n int) (int, bool) {
	if w <= 0 {
		return 0, false
	}
	x, y := i%w, i/w
	if x >= h || y >= w { // transposed coordinate would leave the mesh
		return 0, false
	}
	d := x*w + y
	if d == i || d >= n {
		return 0, false
	}
	return d, true
}

// bitCompDest maps node i to its bit complement within the largest
// power-of-two population. ok is false for nodes outside it.
func bitCompDest(i, n int) (int, bool) {
	p := 1
	for p*2 <= n {
		p *= 2
	}
	if p < 2 || i >= p {
		return 0, false
	}
	return (p - 1) ^ i, true
}

// gridNeighbors returns the indices adjacent to i on a w x h grid. With
// wrap (torus), edge coordinates fold around; duplicates (a wrap meeting
// its mesh neighbour on 2-wide dimensions) and self-links (1-wide
// dimensions) are dropped.
func gridNeighbors(i, w, h, n int, wrap bool) []int {
	x, y := i%w, i/w
	var out []int
	add := func(nx, ny int) {
		if wrap {
			nx, ny = (nx+w)%w, (ny+h)%h
		} else if nx < 0 || nx >= w || ny < 0 || ny >= h {
			return
		}
		d := ny*w + nx
		if d >= n || d == i {
			return
		}
		for _, seen := range out {
			if seen == d {
				return
			}
		}
		out = append(out, d)
	}
	add(x+1, y)
	add(x-1, y)
	add(x, y+1)
	add(x, y-1)
	return out
}

// next returns the destination node index for the source's next
// transaction.
func (ch *chooser) next() int {
	switch ch.cfg.Pattern {
	case Hotspot:
		if ch.cfg.HotNode != ch.src && ch.rng.Bool(ch.cfg.HotFrac) {
			return ch.cfg.HotNode
		}
		return uniformOther(ch.rng, ch.n, ch.src)
	case Transpose:
		if d, ok := transposeDest(ch.src, ch.geomW(), ch.geomH(), ch.n); ok {
			return d
		}
		return uniformOther(ch.rng, ch.n, ch.src)
	case BitComplement:
		if d, ok := bitCompDest(ch.src, ch.n); ok {
			return d
		}
		return uniformOther(ch.rng, ch.n, ch.src)
	case NearestNeighbor:
		if ch.cfg.Topology == transport.Mesh || ch.cfg.Topology == transport.Torus {
			if nb := gridNeighbors(ch.src, ch.w, ch.h, ch.n, ch.cfg.Topology == transport.Torus); len(nb) > 0 {
				return nb[ch.rng.Intn(len(nb))]
			}
		}
		return (ch.src + 1) % ch.n
	case Bursty:
		if ch.burstLeft <= 0 {
			ch.burstDst = uniformOther(ch.rng, ch.n, ch.src)
			// Geometric burst length with the configured mean.
			ch.burstLeft = 1
			cont := 1 - 1/float64(ch.cfg.BurstLen)
			for ch.rng.Bool(cont) {
				ch.burstLeft++
			}
		}
		ch.burstLeft--
		return ch.burstDst
	default: // UniformRandom
		return uniformOther(ch.rng, ch.n, ch.src)
	}
}

// geomW/geomH are the logical grid for coordinate patterns: the mesh
// (or torus) shape when on one, else the largest inscribed square.
func (ch *chooser) geomW() int {
	if ch.cfg.Topology == transport.Mesh || ch.cfg.Topology == transport.Torus {
		return ch.w
	}
	s := 1
	for (s+1)*(s+1) <= ch.n {
		s++
	}
	return s
}

func (ch *chooser) geomH() int {
	if ch.cfg.Topology == transport.Mesh || ch.cfg.Topology == transport.Torus {
		return ch.h
	}
	return ch.geomW()
}
