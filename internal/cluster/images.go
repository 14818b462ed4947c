package cluster

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/noise"
	"mklite/internal/sched"
)

// Images is a node image store: the node images one experiment call
// prepares, and the noise table store they are prepared under, so that
// every image of the call shares its Ψ grids and max-of-K tables with the
// others whose noise sources have the same law. Every caller that asks one
// store for the image of a job gets one image per key, prepared once, and
// keys whose node counts lay out the same node (SameLayout) share one
// prepared image, each key running its view at its own node count
// (Image.Nodes). A store keeps everything it prepared until it is
// dropped, so give one to the runs of one experiment call and drop it
// with them. Sharing cannot change an output: an image is a pure function
// of its key, and a view equals an image prepared for the view. A store
// is safe for concurrent use.
type Images struct {
	mu       sync.Mutex
	families map[storeKey]*family
	// plans numbers every fault plan pointer asked for by value: each maps
	// to the number of the first equal plan, distinct[number-1].
	plans    map[*fault.Plan]int
	distinct []*fault.Plan
	// tables is the noise table store every image is prepared under.
	tables *noise.Store
}

// NewImages returns an empty node image store.
func NewImages() *Images {
	return &Images{
		families: map[storeKey]*family{},
		plans:    map[*fault.Plan]int{},
		tables:   noise.NewStore(),
	}
}

// Fork returns an empty node image store that shares s's noise table
// store: its images are its own and die with it, while its tables are
// shared with s and every other fork of s. An experiment call whose parts
// share no images, such as Figure 4's applications, gives each part a fork
// of one store, so each part's images die with the part.
func (s *Images) Fork() *Images {
	f := NewImages()
	f.tables = s.tables
	return f
}

// storeKey is what a node image depends on besides its node count: its
// job's application, kernel, scheduler and fault plan, whether its sink
// counts and observes, and the timestep budget it is prepared for (the
// application's Timesteps). A job's seed is left out; Run takes it.
type storeKey struct {
	app                 string
	kernel              kernel.Type
	sched               sched.Kind
	plan                int
	counting, observing bool
	budget              int
}

// family is the images of one storeKey by node count: layouts one
// prepared image per node layout asked for, at the node count it was
// prepared at, and views each node count's image, a view of one of them.
// Each is built once, by the first caller that needs it.
type family struct {
	layouts, views map[int]func() (*Image, error)
}

// Image returns the node image of job j, its seed aside: the image that
// Prepare(j) would return, or a view of a shared image that runs exactly
// like it. Every caller with j's key shares one image, and the first to
// ask for a node layout prepares it at its own node count while the
// others wait for it. Preparing draws nothing and a view equals an image
// prepared at its node count, so which caller prepares cannot reach an
// output. The key holds j's application by name, with its Timesteps, so
// j must leave the fabric, the kernel options, the memory mode and
// per-step tracing at their defaults, the parts of a job the key does not
// hold.
func (s *Images) Image(j Job) (*Image, error) {
	if j.App == nil {
		return nil, fmt.Errorf("cluster: job without application")
	}
	if j.Fabric != nil || j.McK != nil || j.MOS != nil || j.Linux != nil || j.ForceDDROnly || j.Quadrant || j.Trace {
		return nil, fmt.Errorf("cluster: an image store holds jobs of the default fabric, kernel options and memory mode, untraced")
	}
	s.mu.Lock()
	key := storeKey{app: j.App.Name, kernel: j.Kernel, sched: j.Sched, plan: s.plan(j.Faults),
		counting: j.Sink.Counting(), observing: j.Sink.Observing(), budget: j.App.Timesteps}
	f := s.families[key]
	if f == nil {
		f = &family{layouts: map[int]func() (*Image, error){}, views: map[int]func() (*Image, error){}}
		s.families[key] = f
	}
	view, ok := f.views[j.Nodes]
	if !ok {
		view = s.view(f, key, j)
		f.views[j.Nodes] = view
	}
	s.mu.Unlock()
	return view()
}

// plan numbers a fault plan by value: equal plans get one number whatever
// their pointers, and nil gets 0. Each pointer is compared once, so a
// caller that asks with one plan many times should pass one pointer.
// s.mu must be held.
func (s *Images) plan(p *fault.Plan) int {
	if p == nil {
		return 0
	}
	n, ok := s.plans[p]
	if !ok {
		i := slices.IndexFunc(s.distinct, func(q *fault.Plan) bool { return reflect.DeepEqual(p, q) })
		if i < 0 {
			i = len(s.distinct)
			s.distinct = append(s.distinct, p)
		}
		n = i + 1
		s.plans[p] = n
	}
	return n
}

// view returns the image function of job j in family f of key: the view
// at j's node count of the layout that serves it, else a new prepared
// image. SameLayout is an equivalence, so at most one layout serves a node
// count. s.mu must be held.
func (s *Images) view(f *family, key storeKey, j Job) func() (*Image, error) {
	for nodes, prep := range f.layouts {
		if n := j.Nodes; SameLayout(j.App, nodes, n) {
			return sync.OnceValues(func() (*Image, error) {
				img, err := prep()
				if err != nil {
					return nil, err
				}
				return img.Nodes(n)
			})
		}
	}
	j.Seed, j.Sink = 0, nil
	tables := s.tables
	prep := sync.OnceValues(func() (*Image, error) {
		return prepareJob(context.TODO(), j, key.counting, key.observing, tables)
	})
	f.layouts[j.Nodes] = prep
	return prep
}

// Sizes returns how many node images the store has prepared, one per node
// layout of its keys, and how many keys it holds, each with its image.
func (s *Images) Sizes() (prepared, keys int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.families {
		prepared, keys = prepared+len(f.layouts), keys+len(f.views)
	}
	return prepared, keys
}
