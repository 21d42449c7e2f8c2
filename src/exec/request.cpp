#include "exec/request.h"

#include <stdexcept>
#include <string>

#include "common/require.h"

namespace qs {

const std::vector<double>& effective_parameters(
    const ExecutionRequest& request) {
  const bool parametric = request.circuit.parametric();
  if (!parametric) {
    require(request.parameters.empty(),
            "ExecutionRequest: parameters supplied for a non-parametric "
            "circuit");
    return request.parameters;  // empty
  }
  const std::vector<double>& params = !request.parameters.empty()
                                          ? request.parameters
                                          : request.circuit.parameter_values();
  require(!params.empty(),
          "ExecutionRequest: parametric circuit without a binding; supply "
          "with_parameters() or execute a Circuit::bind() result");
  if (params.size() != request.circuit.num_parameters())
    throw std::invalid_argument(
        "ExecutionRequest: expected " +
        std::to_string(request.circuit.num_parameters()) +
        " parameter(s), got " + std::to_string(params.size()));
  return params;
}

double ExecutionResult::expectation(const std::string& name) const {
  const auto it = expectations.find(name);
  require(it != expectations.end(),
          "ExecutionResult::expectation: observable '" + name +
              "' was not part of the request");
  return it->second;
}

std::size_t ExecutionResult::total_counts() const {
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  return total;
}

}  // namespace qs
