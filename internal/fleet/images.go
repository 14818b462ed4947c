package fleet

import (
	"context"
	"reflect"
	"slices"
	"sync"

	"mklite/internal/cluster"
	"mklite/internal/fault"
	"mklite/internal/kernel"
	"mklite/internal/sched"
	"mklite/internal/trace"
)

// Images is a node image store: the node images facility runs prepare,
// and the noise table store they are prepared under
// (cluster.ShareTables). Every run given one store through Config.Images,
// and the specialize policy's calibration on the first of them, prepares
// each image once: the five legs of a policy comparison share their
// images and tables. A store keeps every image it prepared until it is
// dropped, so give one to the runs of one comparison and drop it with
// them. Sharing cannot change an output: an image is a pure function of
// its key (imageKey), and every view of it equals an image prepared for
// the view. A store is safe for concurrent use.
type Images struct {
	mu sync.Mutex
	// layouts holds, per image key with its node count left out, one
	// prepared node image per node layout asked for so far, and views one
	// view of them per key; each is built once, by the first caller that
	// needs it (see image).
	layouts map[imageKey][]layoutImage
	views   map[imageKey]func() (*cluster.Image, error)
	// templates are the interference templates the keys number.
	templates []*fault.Plan
	// tables is the context the images are prepared under: it carries the
	// store's noise table store, which dies with the Images.
	tables context.Context
}

// NewImages returns an empty node image store.
func NewImages() *Images {
	return &Images{
		layouts: map[imageKey][]layoutImage{},
		views:   map[imageKey]func() (*cluster.Image, error){},
		tables:  cluster.ShareTables(context.TODO()),
	}
}

// imageKey is what a node image depends on: its job's application,
// kernel, scheduler, node count and interference plan, whether it records
// counters, and the timestep budget it is prepared for. A job's seed and
// its own budget are left out; it runs the image's Steps view.
type imageKey struct {
	app      string
	kernel   kernel.Type
	sched    sched.Kind
	nodes    int
	plan     planKey
	counting bool
	budget   int
}

// planKey stands for an interference plan: its template's index among the
// store's templates (Images.template) and the co-tenancy interferenceFor
// scaled it to. Both are zero when there is no plan, so every plan-free
// image shares one key whatever its run's template.
type planKey struct {
	template  int
	cotenancy int
}

// planKeyOf keys plan, which is interferenceFor of the template numbered
// tmpl at the given co-tenancy.
func planKeyOf(tmpl, cotenancy int, plan *fault.Plan) planKey {
	if plan == nil {
		return planKey{}
	}
	return planKey{template: tmpl, cotenancy: cotenancy}
}

// template numbers an interference template by value: equal templates get
// one number whatever their pointers, and nil gets 0.
func (s *Images) template(tmpl *fault.Plan) int {
	if tmpl == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.IndexFunc(s.templates, func(t *fault.Plan) bool { return reflect.DeepEqual(t, tmpl) })
	if i < 0 {
		i = len(s.templates)
		s.templates = append(s.templates, tmpl)
	}
	return i + 1
}

// layoutImage is one prepared node layout of an image family (the keys
// that differ only in their node count): the node count the image was
// prepared at, and the function that prepares it once.
type layoutImage struct {
	nodes int
	image func() (*cluster.Image, error)
}

// image returns the node image of job j (its seed, sink and timestep
// budget aside) as a function that builds it on its first call and returns
// the same image, or error, on every call; every caller with the same key
// shares it. The key is j's, with its plan numbered as interferenceFor of
// template tmpl at the given co-tenancy (planKeyOf), whether the image
// counts, and the budget it is prepared for. Keys whose node counts lay
// out the same node (cluster.SameLayout) share one prepared image, and
// each key runs the view of it at its own node count (cluster.Image.Nodes).
// A job closure makes the first call, so in a facility run the first job
// of a layout prepares its image, at its own node count, while the later
// ones wait for it. Which node count that is follows from the order of the
// launches and runs alone, preparing draws nothing, and a view equals an
// image prepared at its node count, so which caller prepares cannot reach
// an output.
func (s *Images) image(j cluster.Job, tmpl, cotenancy int, counting bool, budget int) func() (*cluster.Image, error) {
	key := imageKey{app: j.App.Name, kernel: j.Kernel, sched: j.Sched, nodes: j.Nodes,
		plan: planKeyOf(tmpl, cotenancy, j.Faults), counting: counting, budget: budget}
	s.mu.Lock()
	defer s.mu.Unlock()
	if view, ok := s.views[key]; ok {
		return view
	}
	family := key
	family.nodes = 0
	layouts := s.layouts[family]
	i := slices.IndexFunc(layouts, func(li layoutImage) bool {
		return cluster.SameLayout(j.App, li.nodes, key.nodes)
	})
	var view func() (*cluster.Image, error)
	if i < 0 {
		app := *j.App
		app.Timesteps = budget
		j.App = &app
		tables := s.tables
		view = sync.OnceValues(func() (*cluster.Image, error) {
			var c *trace.Counters
			if counting {
				c = trace.NewCounters()
			}
			j.Sink = trace.NewSink(c, nil)
			return cluster.Prepare(tables, j)
		})
		s.layouts[family] = append(layouts, layoutImage{nodes: key.nodes, image: view})
	} else {
		prep, n := layouts[i].image, key.nodes
		view = sync.OnceValues(func() (*cluster.Image, error) {
			img, err := prep()
			if err != nil {
				return nil, err
			}
			return img.Nodes(n)
		})
	}
	s.views[key] = view
	return view
}
