package sim

import "time"

// Time is a point on the simulation's virtual clock, in nanoseconds since
// the start of the run. It is deliberately distinct from time.Time: the
// simulation clock only advances when the engine executes events.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenient duration units, mirroring package time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Never is a sentinel Time further in the future than any event a simulation
// will schedule.
const Never Time = 1<<63 - 1

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration since the start of the run.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return time.Duration(t).String()
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as a floating-point number of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration using time.Duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// DurationOf converts a floating-point number of seconds into a Duration,
// rounding to the nearest nanosecond. Negative inputs are clamped to zero:
// model arithmetic occasionally produces tiny negative values from floating
// point cancellation, and virtual time must not run backwards.
func DurationOf(seconds float64) Duration {
	if seconds <= 0 {
		return 0
	}
	return Duration(seconds*float64(Second) + 0.5)
}

// Scale multiplies the duration by a dimensionless factor, rounding to the
// nearest nanosecond and clamping at zero.
func (d Duration) Scale(f float64) Duration {
	return DurationOf(d.Seconds() * f)
}
