#include "wse/payload_pool.hpp"

#include "common/error.hpp"

namespace fvdf::wse {

void PayloadRef::release() {
  detail::PayloadNode* node = node_;
  node_ = nullptr;
  if (--node->refs == 0) {
    node->next = node->pool->free_;
    node->pool->free_ = node;
  }
}

std::vector<f32>& PayloadRef::mutate() {
  FVDF_CHECK_MSG(node_ != nullptr, "mutate() on a null payload");
  FVDF_CHECK_MSG(node_->refs == 1, "mutate() on a shared payload");
  return node_->words;
}

PayloadPool::~PayloadPool() {
  while (free_ != nullptr) {
    detail::PayloadNode* next = free_->next;
    delete free_;
    free_ = next;
  }
}

PayloadRef PayloadPool::acquire(std::size_t reserve_words) {
  detail::PayloadNode* node = free_;
  if (node != nullptr) {
    free_ = node->next;
  } else {
    node = new detail::PayloadNode;
    node->pool = this;
  }
  node->next = nullptr;
  node->words.clear();
  node->words.reserve(reserve_words);
  node->refs = 1;
  return PayloadRef(node);
}

} // namespace fvdf::wse
