// Lint fixture: a loop that skips the element sequence itself is a
// private copy of the Section 3.3 merge and must trip the private-merge
// rule. Never compiled; see README.md.
#include "decompose/generator.h"

namespace fixture {

int CountElementsFrom(probe::decompose::ElementGenerator* generator,
                      uint64_t target) {
  probe::zorder::ZValue element;
  int n = 0;
  while (generator->SeekForward(target, &element)) {
    ++n;
    target = element.RangeHi(20) + 1;
  }
  return n;
}

}  // namespace fixture
