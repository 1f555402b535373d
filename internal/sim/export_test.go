package sim

import "unsafe"

// EventBytes lends the external budget test the size of one event-heap entry.
const EventBytes = unsafe.Sizeof(event{})
